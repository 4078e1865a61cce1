// ConcurrentStateStore: a lock-free transposition store for the parallel
// branch-and-bound (exec/parallel_search.h), replacing the mutex-sharded
// per-mask cache of PRs 3–8.
//
// Shape (the DIVINE model checker's store discipline): one open-addressed
// hash table of atomic cell words, keyed by the full search-state identity
// (mask, last_set, depth), with entries bump-allocated out of a preallocated
// FixedChunkArena (util/arena.h) and published by CAS. An entry is immutable
// after publication and is never reclaimed before the store dies, so readers
// need no hazard pointers: any entry a cell names stays valid for the
// store's whole lifetime. Steady-state operation performs ZERO heap
// allocations (proven by tests/alloc_free_search_test.cc) — every byte was
// reserved in the constructor, or kept from the thread's previous search.
//
// Cell words. A cell is one 64-bit word: the high 16 bits hold the search
// generation that wrote it, the low 48 bits the entry's 8-byte-word offset
// into the arena slab, plus 1. A word whose generation is not this store's
// reads as empty, so a table is emptied in O(1) by moving to the next
// generation.
//
// Table reuse. Each thread keeps one cell table between searches: a store
// built on that thread takes the next generation and uses the table's first
// `capacity` cells (the table grows only when a larger capacity is asked
// for, and is zeroed once when the 16-bit generation wraps). Capacity, hash
// and probe sequence are exactly those of a fresh table, so results and
// counters do not depend on what the thread searched before. A second store
// built while the first is still alive on the same thread gets a private
// zeroed table instead. Memory kept per thread is one table of the largest
// capacity it has used (2^21 cells = 16 MiB at the engine's auto-size cap).
//
// Dominance model. For one key, the candidate order is the total order
//   (v, canonical-lex rank of the root prefix)
// — the same order the engine's determinism argument minimizes over. A
// candidate is *dominated* (skip it, `true`) when the published entry is at
// or below it in that order; otherwise the candidate CAS-replaces the entry
// (the replaced entry is counted in `dominated`). The CAS loop is bounded:
// after `max_cas_retries` failed publications the store gives up and reports
// the state as NOT dominated (counted in `evictions`), which merely
// re-expands a subtree — never wrong, by the engine's "skipping fewer states
// is always sound" property. The same graceful degradation applies when the
// probe sequence finds no free cell or the arena is exhausted.
//
// Versus the retired sharded cache: the old store dominated across depths
// (an entry reaching the same (mask, last_set) in *fewer* slots could also
// kill the candidate). Folding depth into the key drops that rare
// cross-depth hit in exchange for a single-word CAS per update and no locks
// anywhere; the engine result is byte-identical either way because skipping
// strictly fewer states never changes the (cost, lex) minimum.
//
// Memory model: entries are fully constructed before the releasing CAS that
// publishes them; every cell load is an acquire, so a reader that observes
// the word observes the entry's fields. A cell's key never changes after
// first publication in a generation (replacements carry the same key), and
// arena offsets are never reused within one store, which rules out ABA on
// the key-match fast path. Words left by an earlier search on the same
// table were written before that search joined, which happens-before this
// store's construction.

#ifndef BCAST_EXEC_STATE_STORE_H_
#define BCAST_EXEC_STATE_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/parallel_search.h"
#include "util/arena.h"

namespace bcast {

struct StateStoreOptions {
  /// Table cells (rounded up to a power of two). Also the live-entry bound.
  size_t capacity = 1 << 16;
  /// Arena budget for entry records; 0 = auto (capacity scaled by an average
  /// entry-size estimate). Exhaustion degrades to not-memoizing, never fails.
  size_t arena_bytes = 0;
  /// Linear-probe limit before an insert is dropped as "table full".
  size_t max_probe = 64;
  /// Failed CAS publications tolerated per update before giving up.
  int max_cas_retries = 8;
};

/// Exact event counts (relaxed atomics; read after the search joined for
/// quiescent values). `hits + inserts + evictions` equals the number of
/// CheckDominatedOrInsert calls; `entries` = `inserts - dominated`.
struct StateStoreCounters {
  uint64_t hits = 0;        // candidate dominated by a published entry
  uint64_t inserts = 0;     // candidate published (fresh cell or replacement)
  uint64_t dominated = 0;   // published entries replaced by a dominating one
  uint64_t evictions = 0;   // candidates dropped unrecorded (full/contended)
  uint64_t cas_retries = 0; // failed publication CAS attempts
  uint64_t entries = 0;     // live published entries (inserts - dominated)
};

class ConcurrentStateStore {
 public:
  /// `problem` provides SubsetLess for the canonical-lex tie-break; it must
  /// outlive the store. The store borrows the constructing thread's cell
  /// table, so it must be destroyed on that thread (any thread may call
  /// CheckDominatedOrInsert in between).
  ConcurrentStateStore(const BnbProblem& problem,
                       const StateStoreOptions& options);
  ~ConcurrentStateStore();

  ConcurrentStateStore(const ConcurrentStateStore&) = delete;
  ConcurrentStateStore& operator=(const ConcurrentStateStore&) = delete;

  /// True when `state` (reached via the root prefix `prefix`, which must
  /// satisfy prefix.size() + root_depth == state.depth) is dominated by a
  /// published entry — the caller skips it. Otherwise records the state
  /// (best effort — see file comment) and returns false. Lock-free;
  /// steady-state allocation-free.
  bool CheckDominatedOrInsert(const BnbState& state,
                              const std::vector<uint64_t>& prefix);

  StateStoreCounters Counters() const;

  size_t capacity() const { return capacity_; }
  size_t arena_bytes_reserved() const { return arena_.bytes_reserved(); }

 private:
  struct Entry;
  struct ThreadTable;

  // Builds an immutable arena-backed entry, or nullptr when the arena is
  // exhausted (or the prefix alone overflows a chunk).
  Entry* NewEntry(const BnbState& state, const std::vector<uint64_t>& prefix);

  // Cell-word encoding of an arena entry (this store's generation in the
  // high bits) and its inverse; Decode is only valid for this generation.
  uint64_t Encode(const Entry* entry) const;
  const Entry* Decode(uint64_t word) const;

  // True when `entry` precedes or equals (state, prefix) in the per-key
  // total order (v, canonical lex).
  bool EntryDominates(const Entry& entry, const BnbState& state,
                      const std::vector<uint64_t>& prefix) const;

  const BnbProblem& problem_;
  const size_t capacity_;   // power of two
  const size_t max_probe_;
  const int max_cas_retries_;
  FixedChunkArena arena_;
  // The calling thread's table while this store holds it (released in the
  // destructor), or null when the store fell back to private_cells_.
  ThreadTable* thread_table_ = nullptr;
  std::unique_ptr<std::atomic<uint64_t>[]> private_cells_;
  std::atomic<uint64_t>* cells_ = nullptr;  // first capacity_ cells used
  uint64_t generation_tag_ = 0;             // generation << 48

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> dominated_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> cas_retries_{0};
};

}  // namespace bcast

#endif  // BCAST_EXEC_STATE_STORE_H_
