// Clang Thread Safety Analysis attribute shims.
//
// These macros expand to Clang's `-Wthread-safety` attributes when the
// compiler supports them and to nothing otherwise, so annotated code builds
// unchanged under GCC while a Clang build (see the BCAST_THREAD_SAFETY CMake
// option and the static-analysis CI job) statically checks the locking
// discipline: which mutex guards which field, which functions require which
// capability, and that every acquire is paired with a release.
//
// Conventions (DESIGN.md par.13):
//  * every field protected by a mutex carries BCAST_GUARDED_BY(mutex) —
//    including fields of nested structs guarded by a sibling member;
//  * functions that must be called with a lock held are annotated
//    BCAST_REQUIRES(mutex) instead of re-acquiring;
//  * state synchronized by a join rather than a lock (e.g. ParallelFor's
//    per-worker failure records) is documented in a comment, not annotated —
//    the analysis has no vocabulary for happens-before edges;
//  * BCAST_NO_THREAD_SAFETY_ANALYSIS is a last resort and must carry a
//    justification comment at the call site.
//
// The vocabulary follows the Clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html); only the subset
// this repository uses is defined.

#ifndef BCAST_UTIL_THREAD_ANNOTATIONS_H_
#define BCAST_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define BCAST_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define BCAST_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability ("mutex" names the capability kind
/// in diagnostics).
#define BCAST_CAPABILITY(x) BCAST_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases a
/// capability.
#define BCAST_SCOPED_CAPABILITY BCAST_THREAD_ANNOTATION_(scoped_lockable)

/// Field/variable is protected by the given capability.
#define BCAST_GUARDED_BY(x) BCAST_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer field whose *pointee* is protected by the given capability.
#define BCAST_PT_GUARDED_BY(x) BCAST_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the capability to be held on entry (and does not
/// release it).
#define BCAST_REQUIRES(...) \
  BCAST_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it past return.
#define BCAST_ACQUIRE(...) \
  BCAST_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry).
#define BCAST_RELEASE(...) \
  BCAST_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function attempts the acquire; the first argument is the return value on
/// success.
#define BCAST_TRY_ACQUIRE(...) \
  BCAST_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called while holding the capability (deadlock guard
/// for non-reentrant locks).
#define BCAST_EXCLUDES(...) \
  BCAST_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define BCAST_RETURN_CAPABILITY(x) BCAST_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Requires a
/// justification comment at the definition.
#define BCAST_NO_THREAD_SAFETY_ANALYSIS \
  BCAST_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // BCAST_UTIL_THREAD_ANNOTATIONS_H_
