#include "exec/state_store.h"

#include <cstring>

#include "util/check.h"

namespace bcast {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// SplitMix64 finalizer over the full (mask, last_set, depth) key. Every bit
// of the key reaches every bit of the hash, so linear probing does not
// cluster on the low-entropy depth field.
// bcast: hot
uint64_t HashKey(const BnbState& state) {
  uint64_t x = state.mask ^ (state.last_set * 0x9E3779B97F4A7C15ull) ^
               (static_cast<uint64_t>(static_cast<uint32_t>(state.depth))
                << 32);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// Arena chunk granularity: big enough that a thread claims a chunk every few
// thousand entries, small enough that per-thread tail waste is noise.
constexpr size_t kChunkBytes = 256 * 1024;

// Average-entry-size estimate for the auto arena budget: a 32-byte header
// plus a dozen prefix words covers the committed bench families with room
// for CAS-replacement garbage.
constexpr size_t kAutoBytesPerCell = 128;

// Cell word: | 16-bit generation | 48-bit arena word offset + 1 |. The
// generation is never 0 while a store uses the table, so an all-zero (fresh
// or wrap-zeroed) cell is empty for every store.
constexpr int kGenerationShift = 48;
constexpr uint64_t kOffsetMask = (uint64_t{1} << kGenerationShift) - 1;
constexpr uint64_t kGenerationLimit = uint64_t{1} << (64 - kGenerationShift);
constexpr size_t kWordBytes = sizeof(uint64_t);

}  // namespace

// One per thread: the cell table its stores reuse, search after search.
struct ConcurrentStateStore::ThreadTable {
  std::unique_ptr<std::atomic<uint64_t>[]> cells;
  size_t size = 0;
  uint64_t generation = 0;  // last generation handed out; 0 = none yet
  bool in_use = false;      // a live store on this thread holds the table

  static ThreadTable& Local() {
    thread_local ThreadTable table;
    return table;
  }
};

struct ConcurrentStateStore::Entry {
  uint64_t mask;
  uint64_t last_set;
  double v;
  int32_t depth;
  uint32_t prefix_len;

  // The prefix words live immediately after the header, in the same arena
  // block (NewEntry sizes the allocation accordingly).
  const uint64_t* prefix() const {
    return reinterpret_cast<const uint64_t*>(this + 1);
  }
  uint64_t* mutable_prefix() { return reinterpret_cast<uint64_t*>(this + 1); }

  static_assert(sizeof(uint64_t) * 2 + sizeof(double) + sizeof(int32_t) +
                        sizeof(uint32_t) ==
                    32,
                "header fields pack to 32 bytes; prefix words stay 8-aligned");
};

ConcurrentStateStore::ConcurrentStateStore(const BnbProblem& problem,
                                           const StateStoreOptions& options)
    : problem_(problem),
      capacity_(RoundUpPow2(options.capacity > 0 ? options.capacity : 1)),
      max_probe_(options.max_probe > 0 ? options.max_probe : 1),
      max_cas_retries_(options.max_cas_retries > 0 ? options.max_cas_retries
                                                   : 1),
      arena_(
          [&] {
            const size_t budget = options.arena_bytes > 0
                                      ? options.arena_bytes
                                      : capacity_ * kAutoBytesPerCell;
            return budget < kChunkBytes ? budget : kChunkBytes;
          }(),
          [&] {
            const size_t budget = options.arena_bytes > 0
                                      ? options.arena_bytes
                                      : capacity_ * kAutoBytesPerCell;
            return (budget + kChunkBytes - 1) / kChunkBytes;
          }()) {
  BCAST_CHECK_LE(arena_.bytes_reserved() / kWordBytes, kOffsetMask - 1);
  ThreadTable& table = ThreadTable::Local();
  uint64_t generation = 1;
  if (table.in_use) {
    // Another store on this thread still holds the shared table; sharing it
    // under a newer generation would make that store's entries vanish.
    private_cells_.reset(new std::atomic<uint64_t>[capacity_]());
    cells_ = private_cells_.get();
  } else {
    if (table.size < capacity_) {
      table.cells.reset();  // free the old table before allocating the new
      table.size = 0;
      table.cells.reset(new std::atomic<uint64_t>[capacity_]());
      table.size = capacity_;
      table.generation = 0;
    }
    if (++table.generation == kGenerationLimit) {
      // Generation wrap: stamps from the previous cycle would read as live,
      // so empty the whole table once and start over.
      for (size_t i = 0; i < table.size; ++i) {
        table.cells[i].store(0, std::memory_order_relaxed);
      }
      table.generation = 1;
    }
    table.in_use = true;
    thread_table_ = &table;
    cells_ = table.cells.get();
    generation = table.generation;
  }
  generation_tag_ = generation << kGenerationShift;
}

ConcurrentStateStore::~ConcurrentStateStore() {
  if (thread_table_ == nullptr) return;
  BCAST_DCHECK(thread_table_ == &ThreadTable::Local())
      << "a state store must be destroyed on the thread that built it";
  thread_table_->in_use = false;
}

uint64_t ConcurrentStateStore::Encode(const Entry* entry) const {
  const size_t offset =
      static_cast<size_t>(reinterpret_cast<const char*>(entry) - arena_.base());
  return generation_tag_ | (offset / kWordBytes + 1);
}

// bcast: hot
const ConcurrentStateStore::Entry* ConcurrentStateStore::Decode(
    uint64_t word) const {
  const size_t offset = static_cast<size_t>((word & kOffsetMask) - 1);
  return reinterpret_cast<const Entry*>(arena_.base() + offset * kWordBytes);
}

ConcurrentStateStore::Entry* ConcurrentStateStore::NewEntry(
    const BnbState& state, const std::vector<uint64_t>& prefix) {
  void* block = arena_.Alloc(sizeof(Entry) + prefix.size() * sizeof(uint64_t));
  if (block == nullptr) return nullptr;
  // Placement construction into arena memory — no heap traffic.
  // bcast-lint: allow(hot-path-alloc)
  Entry* entry = new (block) Entry;
  entry->mask = state.mask;
  entry->last_set = state.last_set;
  entry->v = state.v;
  entry->depth = state.depth;
  entry->prefix_len = static_cast<uint32_t>(prefix.size());
  if (!prefix.empty()) {
    std::memcpy(entry->mutable_prefix(), prefix.data(),
                prefix.size() * sizeof(uint64_t));
  }
  return entry;
}

// bcast: hot
bool ConcurrentStateStore::EntryDominates(
    const Entry& entry, const BnbState& state,
    const std::vector<uint64_t>& prefix) const {
  if (entry.v < state.v) return true;
  if (entry.v > state.v) return false;
  const uint64_t* recorded = entry.prefix();
  for (uint32_t i = 0; i < entry.prefix_len; ++i) {
    if (recorded[i] != prefix[i]) {
      return problem_.SubsetLess(recorded[i], prefix[i]);
    }
  }
  // Identical path — the state is literally the recorded one; skipping the
  // revisit is trivially sound.
  return true;
}

// bcast: hot
bool ConcurrentStateStore::CheckDominatedOrInsert(
    const BnbState& state, const std::vector<uint64_t>& prefix) {
  const size_t index_mask = capacity_ - 1;
  size_t index = static_cast<size_t>(HashKey(state)) & index_mask;
  uint64_t mine = 0;  // built lazily, reusable across cells (same bytes)
  auto build_mine = [&] {
    const Entry* entry = NewEntry(state, prefix);
    if (entry != nullptr) mine = Encode(entry);
    return entry != nullptr;
  };
  for (size_t probe = 0; probe < max_probe_; ++probe) {
    std::atomic<uint64_t>& cell = cells_[index];
    uint64_t current = cell.load(std::memory_order_acquire);
    if ((current & ~kOffsetMask) != generation_tag_) {
      // Empty: never written, or written by an earlier search.
      if (mine == 0 && !build_mine()) {  // arena exhausted — stop memoizing
        evictions_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (cell.compare_exchange_strong(current, mine,
                                       std::memory_order_release,
                                       std::memory_order_acquire)) {
        inserts_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      // Lost the claim; `current` is the winner, which only this store can
      // have written — fall through to the key check (a cell's key never
      // changes after first publication).
    }
    const Entry* entry = Decode(current);
    if (entry->mask == state.mask && entry->last_set == state.last_set &&
        entry->depth == state.depth && entry->prefix_len == prefix.size()) {
      int retries = 0;
      while (true) {
        if (EntryDominates(*entry, state, prefix)) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        if (mine == 0 && !build_mine()) {
          evictions_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        if (cell.compare_exchange_strong(current, mine,
                                         std::memory_order_release,
                                         std::memory_order_acquire)) {
          inserts_.fetch_add(1, std::memory_order_relaxed);
          dominated_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        cas_retries_.fetch_add(1, std::memory_order_relaxed);
        if (++retries >= max_cas_retries_) {  // bounded retry — give up
          evictions_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        entry = Decode(current);
      }
    }
    index = (index + 1) & index_mask;
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);  // probe limit: full
  return false;
}

StateStoreCounters ConcurrentStateStore::Counters() const {
  StateStoreCounters counters;
  counters.hits = hits_.load(std::memory_order_relaxed);
  counters.inserts = inserts_.load(std::memory_order_relaxed);
  counters.dominated = dominated_.load(std::memory_order_relaxed);
  counters.evictions = evictions_.load(std::memory_order_relaxed);
  counters.cas_retries = cas_retries_.load(std::memory_order_relaxed);
  counters.entries = counters.inserts - counters.dominated;
  return counters;
}

}  // namespace bcast
