// Annotated synchronization primitives: bcast::Mutex and MutexLock.
//
// Thin wrappers over std::mutex that carry the
// Clang Thread Safety Analysis attributes (util/thread_annotations.h), so a
// `-Wthread-safety` build statically proves the locking discipline of every
// user. All concurrent library code locks through these types — raw
// std::mutex in src/ defeats the analysis (the checker cannot see through an
// unannotated type) and should not survive review.
//
// Zero-overhead claim: every method is an inline forward to the std
// primitive; the attributes are compile-time only.

#ifndef BCAST_UTIL_MUTEX_H_
#define BCAST_UTIL_MUTEX_H_

#include <mutex>

#include "util/thread_annotations.h"

namespace bcast {

/// Standard exclusive mutex, annotated as a capability.
class BCAST_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() BCAST_ACQUIRE() { mu_.lock(); }
  void Unlock() BCAST_RELEASE() { mu_.unlock(); }
  bool TryLock() BCAST_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock: acquires in the constructor, releases in the destructor. The
/// scoped-capability attribute lets the analysis track the critical section
/// as the lexical scope of the lock object.
class BCAST_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) BCAST_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() BCAST_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace bcast

#endif  // BCAST_UTIL_MUTEX_H_
