// FixedChunkArena: a lock-free fixed-chunk memory pool for steady-state
// allocation-free hot paths.
//
// The arena reserves its entire budget — `num_chunks` chunks of `chunk_bytes`
// each, carved out of one contiguous slab — at construction. After that,
// Alloc() never touches the heap: each thread bump-allocates out of a private
// chunk it claimed from the pool (one relaxed fetch_add per *chunk*, not per
// allocation), so the per-allocation cost is a thread-local pointer bump.
// When the pool is exhausted Alloc() returns nullptr and the caller degrades
// gracefully (the state store expands the state without memoizing it — see
// exec/state_store.h). This is the DIVINE model checker's Pool discipline:
// preallocate, bump, never free individual objects, drop the whole slab at
// once.
//
// Lifetime contract: allocations are never individually freed — everything
// lives until the arena is destroyed. That makes the arena the natural
// backing store for CAS-published immutable records: a pointer installed in
// a lock-free structure stays dereferenceable for the structure's whole
// lifetime, so no hazard pointers or epoch reclamation are needed.
//
// Thread-local chunk cache: the per-thread {cursor, end} pair lives in a
// fixed-size thread_local slot array keyed by a process-unique arena id, so
// claiming a slot allocates nothing and a destroyed arena's stale slots are
// never dereferenced (the id check fails; ids are never reused). A thread
// that loses its slot to another live arena simply claims a fresh chunk on
// its next Alloc — correctness is unaffected, only the tail of the old chunk
// is wasted.

#ifndef BCAST_UTIL_ARENA_H_
#define BCAST_UTIL_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace bcast {

class FixedChunkArena {
 public:
  /// Reserves `num_chunks * chunk_bytes` bytes up front (one slab).
  /// `chunk_bytes` is rounded up to a multiple of the 8-byte allocation
  /// granularity; both arguments are checked > 0.
  FixedChunkArena(size_t chunk_bytes, size_t num_chunks);
  ~FixedChunkArena();

  FixedChunkArena(const FixedChunkArena&) = delete;
  FixedChunkArena& operator=(const FixedChunkArena&) = delete;

  /// Returns an 8-byte-aligned block of at least `bytes` bytes, or nullptr
  /// when `bytes` exceeds the chunk size or the pool is exhausted. Lock-free;
  /// callable from any thread. Never touches the heap.
  void* Alloc(size_t bytes);

  /// Chunks handed out so far (monotone; == num_chunks when exhausted).
  size_t chunks_used() const;

  size_t chunk_bytes() const { return chunk_bytes_; }
  size_t num_chunks() const { return num_chunks_; }
  size_t bytes_reserved() const { return chunk_bytes_ * num_chunks_; }
  /// Start of the contiguous slab every Alloc() block lies in, so a caller
  /// can name a block by its offset from here instead of by pointer.
  const char* base() const { return slab_.get(); }

 private:
  // Claims the next pool chunk, or nullptr when the pool is exhausted.
  char* GrabChunk();

  const size_t chunk_bytes_;
  const size_t num_chunks_;
  const uint64_t uid_;  // process-unique; keys the thread-local slot cache
  std::unique_ptr<char[]> slab_;
  std::atomic<size_t> next_chunk_{0};
};

}  // namespace bcast

#endif  // BCAST_UTIL_ARENA_H_
