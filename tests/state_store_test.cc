// Unit and stress tests for the lock-free concurrent state store and its
// backing fixed-chunk arena (exec/state_store.h, util/arena.h).
//
// The stress tests run under the TSan CI job (ci.yml filters on the
// StateStore/Arena test names), which is where the memory-model claims in
// the state-store header are actually checked. The StateStoreReuse tests
// pin the per-thread cell-table reuse: a search on a reused table must be
// indistinguishable from one on a fresh table.

#include "exec/state_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/topo_parallel.h"
#include "alloc/topo_search.h"
#include "broadcast/program_io.h"
#include "core/planner.h"
#include "tree/builders.h"
#include "tree/index_tree.h"
#include "util/arena.h"
#include "util/rng.h"

namespace bcast {
namespace {

// ---------------------------------------------------------------------------
// FixedChunkArena
// ---------------------------------------------------------------------------

TEST(ArenaTest, BumpAllocatesAlignedBlocksUntilExhausted) {
  FixedChunkArena arena(/*chunk_bytes=*/64, /*num_chunks=*/2);
  EXPECT_EQ(arena.bytes_reserved(), 128u);
  std::vector<void*> blocks;
  while (void* block = arena.Alloc(24)) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(block) % 8, 0u);
    blocks.push_back(block);
  }
  // 24 rounds up to 24; two blocks fit per 64-byte chunk (the 16-byte tail
  // is wasted), two chunks total.
  EXPECT_EQ(blocks.size(), 4u);
  EXPECT_EQ(arena.chunks_used(), 2u);
  // The 16-byte tail of the final chunk still serves small requests...
  EXPECT_NE(arena.Alloc(8), nullptr);
  EXPECT_NE(arena.Alloc(8), nullptr);
  // ...then the pool is exhausted for good.
  EXPECT_EQ(arena.Alloc(8), nullptr);
}

TEST(ArenaTest, OversizedRequestIsRejectedNotSplit) {
  FixedChunkArena arena(/*chunk_bytes=*/64, /*num_chunks=*/4);
  EXPECT_EQ(arena.Alloc(65), nullptr);
  // The rejection consumed nothing.
  EXPECT_NE(arena.Alloc(64), nullptr);
}

TEST(ArenaTest, DistinctArenasDoNotShareThreadState) {
  FixedChunkArena a(/*chunk_bytes=*/64, /*num_chunks=*/1);
  FixedChunkArena b(/*chunk_bytes=*/64, /*num_chunks=*/1);
  void* from_a = a.Alloc(64);
  void* from_b = b.Alloc(64);
  ASSERT_NE(from_a, nullptr);
  ASSERT_NE(from_b, nullptr);
  EXPECT_NE(from_a, from_b);
  EXPECT_EQ(a.Alloc(8), nullptr);
  EXPECT_EQ(b.Alloc(8), nullptr);
}

TEST(ArenaStressTest, ConcurrentAllocationsNeverOverlap) {
  constexpr int kThreads = 8;
  constexpr size_t kBlock = 16;
  FixedChunkArena arena(/*chunk_bytes=*/256, /*num_chunks=*/64);
  std::vector<std::vector<void*>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena, &per_thread, t] {
      while (void* block = arena.Alloc(kBlock)) {
        per_thread[static_cast<size_t>(t)].push_back(block);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<uintptr_t> all;
  for (const auto& blocks : per_thread) {
    for (void* block : blocks) {
      all.push_back(reinterpret_cast<uintptr_t>(block));
    }
  }
  std::sort(all.begin(), all.end());
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i] - all[i - 1], kBlock) << "overlapping blocks at " << i;
  }
  // Every fully-consumed chunk yields 16 blocks; each thread can strand at
  // most one partial chunk, so the floor is (chunks - threads) * 16.
  EXPECT_GE(all.size(), (64 - kThreads) * (256 / kBlock));
  EXPECT_LE(all.size() * kBlock, arena.bytes_reserved());
  EXPECT_EQ(arena.chunks_used(), 64u);
}

// ---------------------------------------------------------------------------
// ConcurrentStateStore
// ---------------------------------------------------------------------------

// Minimal problem: the store only calls SubsetLess. Plain integer order makes
// the (v, lex) candidate order easy to replicate in the test.
class StoreProblem : public BnbProblem {
 public:
  BnbState Root() const override { return BnbState{1, 1, 1, 0.0}; }
  bool IsGoal(const BnbState&) const override { return false; }
  void Expand(const BnbState&, std::vector<uint64_t>*) const override {}
  BnbState Child(const BnbState& state, uint64_t) const override {
    return state;
  }
  double Estimate(const BnbState& state) const override { return state.v; }
  bool SubsetLess(uint64_t a, uint64_t b) const override { return a < b; }
};

BnbState MakeState(uint64_t mask, double v, int depth = 3) {
  BnbState state;
  state.mask = mask;
  state.last_set = 1;
  state.depth = depth;
  state.v = v;
  return state;
}

void ExpectInvariants(const ConcurrentStateStore& store, uint64_t calls) {
  const StateStoreCounters c = store.Counters();
  EXPECT_EQ(c.hits + c.inserts + c.evictions, calls);
  EXPECT_EQ(c.entries, c.inserts - c.dominated);
}

TEST(StateStoreTest, DominanceFollowsValueThenCanonicalLex) {
  StoreProblem problem;
  StateStoreOptions options;
  options.capacity = 64;
  ConcurrentStateStore store(problem, options);

  const std::vector<uint64_t> canonical{2, 5};
  const std::vector<uint64_t> later{3, 4};

  // First sighting is recorded.
  EXPECT_FALSE(store.CheckDominatedOrInsert(MakeState(7, 5.0), canonical));
  // Strictly worse v: dominated.
  EXPECT_TRUE(store.CheckDominatedOrInsert(MakeState(7, 6.0), later));
  // Equal v, lexicographically later prefix: dominated (tie-break).
  EXPECT_TRUE(store.CheckDominatedOrInsert(MakeState(7, 5.0), later));
  // The identical candidate is trivially dominated.
  EXPECT_TRUE(store.CheckDominatedOrInsert(MakeState(7, 5.0), canonical));
  // Equal v, earlier prefix: replaces the entry...
  EXPECT_FALSE(store.CheckDominatedOrInsert(MakeState(7, 5.0), {2, 4}));
  // ...as does a strictly better v.
  EXPECT_FALSE(store.CheckDominatedOrInsert(MakeState(7, 4.0), later));
  // And the replaced entries now lose against the new one.
  EXPECT_TRUE(store.CheckDominatedOrInsert(MakeState(7, 5.0), canonical));

  const StateStoreCounters c = store.Counters();
  EXPECT_EQ(c.hits, 4u);
  EXPECT_EQ(c.inserts, 3u);
  EXPECT_EQ(c.dominated, 2u);  // two CAS replacements of the same cell
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.cas_retries, 0u);  // single-threaded: every CAS wins first try
  ExpectInvariants(store, 7);
}

TEST(StateStoreTest, DepthIsPartOfTheKey) {
  StoreProblem problem;
  StateStoreOptions options;
  options.capacity = 64;
  ConcurrentStateStore store(problem, options);
  // Same (mask, last_set) at different depths are distinct states: neither
  // dominates the other, both get recorded.
  EXPECT_FALSE(
      store.CheckDominatedOrInsert(MakeState(7, 5.0, /*depth=*/3), {2, 5}));
  EXPECT_FALSE(
      store.CheckDominatedOrInsert(MakeState(7, 1.0, /*depth=*/4), {2, 5, 6}));
  EXPECT_EQ(store.Counters().entries, 2u);
  ExpectInvariants(store, 2);
}

TEST(StateStoreTest, FullTableEvictsInsteadOfBlocking) {
  StoreProblem problem;
  StateStoreOptions options;
  options.capacity = 4;
  options.max_probe = 4;
  ConcurrentStateStore store(problem, options);
  EXPECT_EQ(store.capacity(), 4u);

  constexpr uint64_t kCalls = 64;
  for (uint64_t i = 0; i < kCalls; ++i) {
    store.CheckDominatedOrInsert(MakeState(/*mask=*/100 + i, 1.0), {1, 2});
  }
  const StateStoreCounters c = store.Counters();
  // Distinct keys: no hits, at most one insert per cell, the rest dropped.
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.inserts, 4u);
  EXPECT_EQ(c.entries, 4u);
  EXPECT_EQ(c.evictions, kCalls - 4u);
  ExpectInvariants(store, kCalls);

  // A key that made it into the table still memoizes normally.
  uint64_t recorded_mask = 0;
  for (uint64_t i = 0; i < kCalls; ++i) {
    // Find a recorded key by behavior: re-submitting a recorded key is a hit.
    if (store.CheckDominatedOrInsert(MakeState(100 + i, 1.0), {1, 2})) {
      recorded_mask = 100 + i;
      break;
    }
  }
  EXPECT_GE(recorded_mask, 100u);
}

TEST(StateStoreTest, ArenaExhaustionDegradesToNotMemoizing) {
  StoreProblem problem;
  StateStoreOptions options;
  options.capacity = 64;
  // Room for exactly one 32-byte header + two prefix words (48 bytes).
  options.arena_bytes = 64;
  ConcurrentStateStore store(problem, options);
  EXPECT_EQ(store.arena_bytes_reserved(), 64u);

  EXPECT_FALSE(store.CheckDominatedOrInsert(MakeState(7, 5.0), {2, 5}));
  // Distinct keys: the arena is out, so these are dropped, not recorded...
  EXPECT_FALSE(store.CheckDominatedOrInsert(MakeState(8, 5.0), {2, 6}));
  EXPECT_FALSE(store.CheckDominatedOrInsert(MakeState(9, 5.0), {2, 7}));
  // ...and re-submitting a dropped key is NOT a hit (it was never stored).
  EXPECT_FALSE(store.CheckDominatedOrInsert(MakeState(8, 5.0), {2, 6}));
  // The recorded key still memoizes (domination needs no new entry).
  EXPECT_TRUE(store.CheckDominatedOrInsert(MakeState(7, 6.0), {3, 5}));

  const StateStoreCounters c = store.Counters();
  EXPECT_EQ(c.inserts, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.evictions, 3u);
  ExpectInvariants(store, 5);
}

// 8 threads hammer a small key set with candidates of varying (v, prefix).
// With generous capacity/arena/retry budgets nothing is ever dropped, so
// after the join the store must hold, for every key, exactly the global
// (v, lex)-minimum across every candidate any thread submitted — verified
// behaviorally: the winner is reported dominated, anything strictly better
// is not.
TEST(StateStoreStressTest, EightThreadRaceConvergesToTheGlobalMinimum) {
  constexpr int kThreads = 8;
  constexpr uint64_t kKeys = 32;
  constexpr int kRoundsPerThread = 2000;

  StoreProblem problem;
  StateStoreOptions options;
  options.capacity = 1024;
  options.arena_bytes = 16u << 20;
  options.max_cas_retries = 1 << 20;  // effectively unbounded for this test
  ConcurrentStateStore store(problem, options);

  struct Candidate {
    double v;
    std::vector<uint64_t> prefix;
  };
  auto candidate_less = [](const Candidate& a, const Candidate& b) {
    if (a.v != b.v) return a.v < b.v;
    return a.prefix < b.prefix;  // SubsetLess is plain < in StoreProblem
  };

  std::vector<std::vector<std::vector<Candidate>>> submitted(
      kThreads, std::vector<std::vector<Candidate>>(kKeys));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t + 1);
      for (int round = 0; round < kRoundsPerThread; ++round) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const uint64_t key = rng % kKeys;
        Candidate candidate;
        candidate.v = static_cast<double>((rng >> 8) % 64);
        candidate.prefix = {(rng >> 16) % 1024, (rng >> 32) % 1024};
        store.CheckDominatedOrInsert(
            MakeState(1000 + key, candidate.v), candidate.prefix);
        submitted[static_cast<size_t>(t)][key].push_back(std::move(candidate));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const StateStoreCounters after_race = store.Counters();
  const uint64_t race_calls =
      static_cast<uint64_t>(kThreads) * kRoundsPerThread;
  EXPECT_EQ(after_race.hits + after_race.inserts + after_race.evictions,
            race_calls);
  EXPECT_EQ(after_race.entries, after_race.inserts - after_race.dominated);
  // Nothing was droppable: capacity and arena are ample, retries unbounded.
  EXPECT_EQ(after_race.evictions, 0u);
  EXPECT_EQ(after_race.entries, kKeys);
  // CAS-retry sanity: retries only happen on publication races, so they are
  // bounded by the number of publications attempted.
  EXPECT_LE(after_race.cas_retries,
            (after_race.inserts + after_race.evictions) * (1u << 20));

  for (uint64_t key = 0; key < kKeys; ++key) {
    Candidate best;
    bool has_best = false;
    for (int t = 0; t < kThreads; ++t) {
      for (const Candidate& candidate : submitted[static_cast<size_t>(t)][key]) {
        if (!has_best || candidate_less(candidate, best)) {
          best = candidate;
          has_best = true;
        }
      }
    }
    ASSERT_TRUE(has_best);
    // The winning candidate (or anything worse) is dominated by the entry.
    EXPECT_TRUE(store.CheckDominatedOrInsert(MakeState(1000 + key, best.v),
                                             best.prefix))
        << "key " << key;
    // A strictly better candidate is not.
    EXPECT_FALSE(store.CheckDominatedOrInsert(
        MakeState(1000 + key, best.v - 0.5), best.prefix))
        << "key " << key;
  }
}

// Concurrent inserts over all-distinct keys into a table that cannot hold
// them: eviction accounting must stay exact under the race.
TEST(StateStoreStressTest, ConcurrentOverflowKeepsCountersConsistent) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 4096;

  StoreProblem problem;
  StateStoreOptions options;
  options.capacity = 256;
  options.max_probe = 8;
  ConcurrentStateStore store(problem, options);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key =
            (static_cast<uint64_t>(t) << 32) | (i + 1);  // globally unique
        store.CheckDominatedOrInsert(MakeState(key, 1.0), {1, 2});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const StateStoreCounters c = store.Counters();
  EXPECT_EQ(c.hits, 0u);  // keys never repeat
  EXPECT_EQ(c.dominated, 0u);
  EXPECT_EQ(c.hits + c.inserts + c.evictions, kThreads * kPerThread);
  EXPECT_EQ(c.entries, c.inserts);
  EXPECT_LE(c.entries, store.capacity());
  EXPECT_GT(c.evictions, 0u);  // the table is 128x oversubscribed
}

// ---------------------------------------------------------------------------
// Per-thread cell-table reuse
// ---------------------------------------------------------------------------

// Everything an inline search reports that the store could influence.
struct SearchOutcome {
  std::vector<uint64_t> best_path;
  double best_v = 0.0;
  uint64_t hits = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;

  bool operator==(const SearchOutcome&) const = default;
};

// One-thread, no-spawn search: the schedule is fixed, so the store counters
// are exact and comparable across runs.
SearchOutcome RunInline(const BnbProblem& problem, size_t capacity) {
  ParallelSearchOptions options;
  options.num_threads = 1;
  options.spawn_depth = 0;
  options.store_capacity = capacity;
  auto result = RunParallelSearch(problem, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  SearchOutcome outcome;
  if (!result.ok()) return outcome;
  outcome.best_path = result->best_path;
  outcome.best_v = result->best_v;
  outcome.hits = result->stats.cache_hits;
  outcome.inserts = result->stats.cache_misses;
  outcome.evictions = result->stats.cache_dropped;
  outcome.entries = result->stats.cache_entries;
  return outcome;
}

// Runs `search` on a new thread, whose cell table starts empty.
template <typename Search>
SearchOutcome OnFreshThread(Search search) {
  SearchOutcome outcome;
  std::thread([&] { outcome = search(); }).join();
  return outcome;
}

void ExpectSameOutcome(const SearchOutcome& actual,
                       const SearchOutcome& expected) {
  EXPECT_EQ(actual.best_path, expected.best_path);
  EXPECT_EQ(actual.best_v, expected.best_v);  // exact, not approximate
  EXPECT_EQ(actual.hits, expected.hits);
  EXPECT_EQ(actual.inserts, expected.inserts);
  EXPECT_EQ(actual.evictions, expected.evictions);
  EXPECT_EQ(actual.entries, expected.entries);
}

TopoTreeSearch MakeTopoSearch(const IndexTree& tree) {
  TopoTreeSearch::Options options;
  options.num_channels = 2;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  auto search = TopoTreeSearch::Create(tree, options);
  EXPECT_TRUE(search.ok()) << search.status().ToString();
  return std::move(search).value();
}

TEST(StateStoreReuseTest, ShrinkingAndGrowingCapacityMatchesAFreshTable) {
  Rng rng(0x5EED);
  const IndexTree tree = MakeRandomTree(&rng, /*num_data=*/12,
                                        /*max_fanout=*/3);
  const TopoTreeSearch search = MakeTopoSearch(tree);
  const TopoBnbProblem problem(search);

  // 2^21 fills cells all over the table; 2^12 then reuses its first 4,096
  // cells, every one of them left over from the previous search; 2^18 reuses
  // cells both searches wrote. Each capacity runs twice, so the second run
  // meets the first one's entries in exactly the cells it probes.
  for (size_t capacity : {size_t{1} << 21, size_t{1} << 12, size_t{1} << 18}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    const SearchOutcome fresh =
        OnFreshThread([&] { return RunInline(problem, capacity); });
    ASSERT_GT(fresh.hits, 0u);  // the store did work on this instance
    ExpectSameOutcome(RunInline(problem, capacity), fresh);
    ExpectSameOutcome(RunInline(problem, capacity), fresh);
  }
}

// Places the elements {1, 2, 4, 8, 16} one per slot; cost is weight times
// slot. Orders that reach the same set share store keys with different
// costs, so every search both inserts and hits.
class PlacementProblem : public BnbProblem {
 public:
  explicit PlacementProblem(std::vector<double> weights)
      : weights_(std::move(weights)) {}

  BnbState Root() const override { return BnbState{0, 0, 1, 0.0}; }
  bool IsGoal(const BnbState& state) const override {
    return state.mask == (uint64_t{1} << weights_.size()) - 1;
  }
  void Expand(const BnbState& state,
              std::vector<uint64_t>* subsets) const override {
    subsets->clear();
    for (size_t i = 0; i < weights_.size(); ++i) {
      const uint64_t bit = uint64_t{1} << i;
      if ((state.mask & bit) == 0) subsets->push_back(bit);
    }
    std::sort(subsets->begin(), subsets->end(),
              [this](uint64_t a, uint64_t b) { return SubsetLess(a, b); });
  }
  BnbState Child(const BnbState& state, uint64_t subset) const override {
    return BnbState{state.mask | subset, subset, state.depth + 1,
                    state.v + Weight(subset) *
                                  static_cast<double>(state.depth + 1)};
  }
  double Estimate(const BnbState& state) const override { return state.v; }
  bool SubsetLess(uint64_t a, uint64_t b) const override {
    if (Weight(a) != Weight(b)) return Weight(a) > Weight(b);
    return a < b;
  }

 private:
  double Weight(uint64_t bit) const {
    return weights_[static_cast<size_t>(std::countr_zero(bit))];
  }

  std::vector<double> weights_;
};

TEST(StateStoreReuseTest, GenerationWrapKeepsEverySearchExact) {
  // Two problems over the same keys with different costs alternate, so each
  // search meets the other's stale entries. On a fresh thread the 16-bit
  // generation wraps at a known point inside the 65,600 searches.
  const PlacementProblem first({5.0, 3.0, 2.0, 1.0, 0.5});
  const PlacementProblem second({0.5, 1.0, 2.0, 3.0, 5.0});
  constexpr size_t kCapacity = 64;
  constexpr int kSearches = 65'600;
  const SearchOutcome first_reference =
      OnFreshThread([&] { return RunInline(first, kCapacity); });
  const SearchOutcome second_reference =
      OnFreshThread([&] { return RunInline(second, kCapacity); });
  ASSERT_GT(first_reference.hits, 0u);
  ASSERT_NE(first_reference.best_path, second_reference.best_path);

  int mismatches = 0;
  std::thread([&] {
    for (int i = 0; i < kSearches; ++i) {
      const bool odd = i % 2 != 0;
      const SearchOutcome outcome = RunInline(odd ? second : first, kCapacity);
      const SearchOutcome& expected =
          odd ? second_reference : first_reference;
      if (!(outcome == expected)) {
        ADD_FAILURE() << "search " << i << " differs from its reference";
        if (++mismatches == 5) return;
      }
    }
  }).join();
  EXPECT_EQ(mismatches, 0);
}

TEST(StateStoreReuseTest, WrappedGenerationSeesNoStaleCells) {
  // On a fresh thread the first store is generation 1 and the 65,536th
  // wraps back to it. Only the first store writes, so its cell would still
  // carry a live-looking stamp at the wrap unless the table was emptied.
  // With one probe per lookup a live-looking cell cannot be stepped over:
  // the key would be dropped, not recorded.
  StoreProblem problem;
  StateStoreOptions options;
  options.capacity = 64;
  options.max_probe = 1;
  constexpr int kGenerations = 1 << 16;
  {
    // Precondition: keys 7 and 9 hash to different cells, so with one probe
    // both can be recorded.
    ConcurrentStateStore fresh(problem, options);
    fresh.CheckDominatedOrInsert(MakeState(7, 1.0), {2, 5});
    fresh.CheckDominatedOrInsert(MakeState(9, 1.0), {2, 5});
    ASSERT_EQ(fresh.Counters().inserts, 2u);
  }
  StateStoreCounters after_wrap;
  bool wrapped_dominates = false;
  std::thread([&] {
    {
      ConcurrentStateStore first(problem, options);
      first.CheckDominatedOrInsert(MakeState(7, 1.0), {2, 5});
    }
    for (int generation = 2; generation < kGenerations; ++generation) {
      ConcurrentStateStore idle(problem, options);
    }
    // Key 7 meets the first store's cell, key 9 a never-written one.
    ConcurrentStateStore wrapped(problem, options);
    wrapped.CheckDominatedOrInsert(MakeState(7, 5.0), {3, 5});
    wrapped.CheckDominatedOrInsert(MakeState(9, 5.0), {3, 5});
    wrapped_dominates =
        wrapped.CheckDominatedOrInsert(MakeState(7, 6.0), {3, 5});
    after_wrap = wrapped.Counters();
  }).join();
  EXPECT_EQ(after_wrap.inserts, 2u);
  EXPECT_EQ(after_wrap.evictions, 0u);
  EXPECT_EQ(after_wrap.hits, 1u);
  EXPECT_TRUE(wrapped_dominates);
}

TEST(StateStoreReuseTest, OverlappingStoresOnOneThreadShareNoCells) {
  StoreProblem problem;
  StateStoreOptions options;
  options.capacity = 64;
  ConcurrentStateStore outer(problem, options);
  EXPECT_FALSE(outer.CheckDominatedOrInsert(MakeState(7, 5.0), {2, 5}));
  {
    // Built while `outer` holds this thread's table: it must not see the
    // outer entry (same generation) nor overwrite it (newer generation).
    ConcurrentStateStore inner(problem, options);
    EXPECT_FALSE(inner.CheckDominatedOrInsert(MakeState(7, 9.0), {3, 5}));
    EXPECT_TRUE(inner.CheckDominatedOrInsert(MakeState(7, 9.5), {3, 5}));
    const StateStoreCounters c = inner.Counters();
    EXPECT_EQ(c.inserts, 1u);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.entries, 1u);
  }
  // The outer entry survived the inner store, and still dominates.
  EXPECT_TRUE(outer.CheckDominatedOrInsert(MakeState(7, 6.0), {3, 5}));
  EXPECT_EQ(outer.Counters().entries, 1u);
  ExpectInvariants(outer, 2);

  // With both gone, a new store starts empty.
  ConcurrentStateStore next(problem, options);
  EXPECT_FALSE(next.CheckDominatedOrInsert(MakeState(7, 9.0), {3, 5}));
}

TEST(StateStoreReuseTest, ConcurrentPlanManyMatchesSequentialPlans) {
  // Two planner threads each run 2-thread exact searches, so every planner
  // thread reuses its own table while engine workers probe it.
  Rng rng(0xB47C4);
  std::vector<IndexTree> trees;
  for (int i = 0; i < 12; ++i) {
    trees.push_back(MakeRandomTree(&rng, /*num_data=*/9 + i % 4,
                                   /*max_fanout=*/3));
  }
  std::vector<PlanRequest> requests;
  for (size_t i = 0; i < trees.size(); ++i) {
    PlanRequest request;
    request.tree = &trees[i];
    request.options.strategy = PlanStrategy::kOptimal;
    request.options.num_channels = 2 + static_cast<int>(i % 2);
    request.options.optimal.num_threads = 2;
    requests.push_back(request);
  }
  const auto sequential = PlanMany(requests, /*num_threads=*/1);
  const auto concurrent = PlanMany(requests, /*num_threads=*/2);
  ASSERT_EQ(sequential.size(), requests.size());
  ASSERT_EQ(concurrent.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(sequential[i].ok()) << sequential[i].status().ToString();
    ASSERT_TRUE(concurrent[i].ok()) << concurrent[i].status().ToString();
    auto sequential_text = FormatProgram(trees[i], sequential[i]->schedule);
    auto concurrent_text = FormatProgram(trees[i], concurrent[i]->schedule);
    ASSERT_TRUE(sequential_text.ok() && concurrent_text.ok());
    EXPECT_EQ(*concurrent_text, *sequential_text);
  }
}

}  // namespace
}  // namespace bcast
