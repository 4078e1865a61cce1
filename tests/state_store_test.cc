// The exact search's state store: the optimizing DFS's TranspositionMemo,
// whose counters are the store_* fields of SearchStats. Unit tests of its
// dominance rule, key and entry cap; reuse of one table across searches;
// and concurrent searches, each with its own table, over one shared tree.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/search_budget.h"
#include "alloc/topo_search.h"
#include "broadcast/program_io.h"
#include "core/planner.h"
#include "tree/builders.h"
#include "tree/index_tree.h"
#include "util/rng.h"

namespace bcast {
namespace {

void ExpectInvariants(const SearchStats& stats, uint64_t calls,
                      const TranspositionMemo& memo) {
  EXPECT_EQ(stats.store_hits + stats.store_inserts + stats.store_evictions,
            calls);
  EXPECT_EQ(memo.size(), stats.store_inserts - stats.store_dominated);
}

TEST(StateStoreTest, DominanceFollowsValueThenCanonicalLex) {
  // The memo compares V only. The DFS enters states in canonical preorder,
  // so an entry recorded earlier always came from the lex-earlier prefix:
  // "equal V" is the lex tie-break, and the earlier entry keeps the state.
  SearchStats stats;
  TranspositionMemo memo;
  EXPECT_FALSE(memo.Dominated(7, 4, 3, 5.0, &stats));  // first: recorded
  EXPECT_TRUE(memo.Dominated(7, 4, 3, 6.0, &stats));   // worse V: skipped
  EXPECT_TRUE(memo.Dominated(7, 4, 3, 5.0, &stats));   // equal V, later prefix
  EXPECT_FALSE(memo.Dominated(7, 4, 3, 4.0, &stats));  // better V: replaces
  EXPECT_TRUE(memo.Dominated(7, 4, 3, 5.0, &stats));   // the old V now loses
  EXPECT_EQ(stats.store_hits, 3u);
  EXPECT_EQ(stats.store_inserts, 2u);
  EXPECT_EQ(stats.store_dominated, 1u);
  EXPECT_EQ(stats.store_evictions, 0u);
  ExpectInvariants(stats, 5, memo);

  // End to end: on a tree full of equal-cost optima (equal weights), the
  // memoized search returns the same canonical-lex-first optimum as the
  // search without a memo.
  IndexTree tree;
  const NodeId root = tree.AddIndexNode(kInvalidNode, "1");
  for (int i = 0; i < 3; ++i) {
    const NodeId index = tree.AddIndexNode(root);
    for (int j = 0; j < 3; ++j) tree.AddDataNode(index, 1.0);
  }
  ASSERT_TRUE(tree.Finalize().ok());
  TopoTreeSearch::Options options;
  options.num_channels = 2;
  auto memoized = TopoTreeSearch::Create(tree, options);
  auto plain = TopoTreeSearch::Create(tree, options);
  ASSERT_TRUE(memoized.ok() && plain.ok());
  plain->ResetMemoForTesting(0);
  auto with_memo = memoized->FindOptimalDfs();
  auto without = plain->FindOptimalDfs();
  ASSERT_TRUE(with_memo.ok() && without.ok());
  EXPECT_GT(with_memo->stats.store_hits, 0u);
  EXPECT_EQ(with_memo->slots, without->slots);
  EXPECT_EQ(with_memo->average_data_wait, without->average_data_wait);
}

TEST(StateStoreTest, DepthIsPartOfTheKey) {
  // Same (mask, last_set) at different depths are distinct states: neither
  // dominates the other, both get recorded.
  SearchStats stats;
  TranspositionMemo memo;
  EXPECT_FALSE(memo.Dominated(7, 4, /*depth=*/3, 5.0, &stats));
  EXPECT_FALSE(memo.Dominated(7, 4, /*depth=*/4, 1.0, &stats));
  EXPECT_TRUE(memo.Dominated(7, 4, /*depth=*/3, 5.0, &stats));
  EXPECT_EQ(memo.size(), 2u);
  ExpectInvariants(stats, 3, memo);
}

TEST(StateStoreTest, FullTableEvictsInsteadOfBlocking) {
  SearchStats stats;
  TranspositionMemo memo(/*max_entries=*/4);
  constexpr uint64_t kCalls = 64;
  for (uint64_t i = 0; i < kCalls; ++i) {
    EXPECT_FALSE(memo.Dominated(/*mask=*/100 + i, 1, 3, 1.0, &stats));
  }
  // Distinct keys: no hits, four records, the rest left unrecorded.
  EXPECT_EQ(stats.store_hits, 0u);
  EXPECT_EQ(stats.store_inserts, 4u);
  EXPECT_EQ(stats.store_evictions, kCalls - 4u);
  EXPECT_EQ(memo.size(), 4u);
  ExpectInvariants(stats, kCalls, memo);

  // A key that made it into the table still memoizes normally; one that did
  // not is never skipped.
  uint64_t recorded = 0;
  for (uint64_t i = 0; i < kCalls; ++i) {
    if (memo.Dominated(100 + i, 1, 3, 1.0, &stats)) ++recorded;
  }
  EXPECT_EQ(recorded, 4u);
}

TEST(StateStoreTest, ArenaExhaustionDegradesToNotMemoizing) {
  // The memo's memory limit is its entry cap. At a cap of zero it records
  // nothing, skips nothing, and the search is the plain DFS.
  SearchStats stats;
  TranspositionMemo memo(/*max_entries=*/0);
  EXPECT_FALSE(memo.Dominated(7, 4, 3, 5.0, &stats));
  EXPECT_FALSE(memo.Dominated(7, 4, 3, 6.0, &stats));  // never a hit
  EXPECT_EQ(stats.store_evictions, 2u);
  ExpectInvariants(stats, 2, memo);

  Rng rng(0x5EED);
  const IndexTree tree = MakeRandomTree(&rng, /*num_data=*/12,
                                        /*max_fanout=*/3);
  TopoTreeSearch::Options options;
  options.num_channels = 2;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  auto search = TopoTreeSearch::Create(tree, options);
  ASSERT_TRUE(search.ok());
  auto reference = search->FindOptimalDfs();
  search->ResetMemoForTesting(0);
  auto degraded = search->FindOptimalDfs();
  ASSERT_TRUE(reference.ok() && degraded.ok());
  EXPECT_EQ(degraded->slots, reference->slots);
  EXPECT_EQ(degraded->average_data_wait, reference->average_data_wait);
  EXPECT_EQ(degraded->stats.store_hits, 0u);
  EXPECT_EQ(degraded->stats.store_inserts, 0u);
  EXPECT_GT(degraded->stats.store_evictions, 0u);
  EXPECT_GT(degraded->stats.nodes_expanded, reference->stats.nodes_expanded);
}

// ---------------------------------------------------------------------------
// Reuse of one table across searches
// ---------------------------------------------------------------------------

TopoTreeSearch MakeTopoSearch(const IndexTree& tree) {
  TopoTreeSearch::Options options;
  options.num_channels = 2;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  auto search = TopoTreeSearch::Create(tree, options);
  EXPECT_TRUE(search.ok()) << search.status().ToString();
  return std::move(search).value();
}

// Runs the optimizer, optionally under an expansion budget.
AllocationResult RunSearch(TopoTreeSearch* search, uint64_t max_expansions) {
  SearchBudget budget;
  budget.max_expansions = max_expansions;
  auto result =
      search->FindOptimalDfs(std::numeric_limits<double>::infinity(),
                             max_expansions > 0 ? &budget : nullptr);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : AllocationResult{};
}

void ExpectSameOutcome(const AllocationResult& actual,
                       const AllocationResult& expected) {
  EXPECT_EQ(actual.slots, expected.slots);
  EXPECT_EQ(actual.average_data_wait, expected.average_data_wait);
  EXPECT_EQ(actual.stats.nodes_expanded, expected.stats.nodes_expanded);
  EXPECT_EQ(actual.stats.store_hits, expected.stats.store_hits);
  EXPECT_EQ(actual.stats.store_inserts, expected.stats.store_inserts);
  EXPECT_EQ(actual.stats.store_dominated, expected.stats.store_dominated);
  EXPECT_EQ(actual.stats.store_evictions, expected.stats.store_evictions);
}

TEST(StateStoreReuseTest, ShrinkingAndGrowingCapacityMatchesAFreshTable) {
  Rng rng(0x5EED);
  const IndexTree tree = MakeRandomTree(&rng, /*num_data=*/12,
                                        /*max_fanout=*/3);
  TopoTreeSearch reused = MakeTopoSearch(tree);

  // A full search grows the table; budgeted searches then run on the large
  // table a fraction of it ever needed, and the full search runs again. Each
  // call must match the same call on a search object that never ran before.
  for (uint64_t budget : {uint64_t{0}, uint64_t{50}, uint64_t{400},
                          uint64_t{0}}) {
    SCOPED_TRACE("expansion budget " + std::to_string(budget));
    TopoTreeSearch fresh = MakeTopoSearch(tree);
    const AllocationResult expected = RunSearch(&fresh, budget);
    if (budget == 0) {
      ASSERT_GT(expected.stats.store_hits, 0u);
    }
    ExpectSameOutcome(RunSearch(&reused, budget), expected);
  }
}

TEST(StateStoreReuseTest, OverlappingStoresOnOneThreadShareNoCells) {
  SearchStats outer_stats;
  TranspositionMemo outer;
  EXPECT_FALSE(outer.Dominated(7, 4, 3, 5.0, &outer_stats));
  {
    // Built while `outer` holds an entry for the same state: it must not see
    // that entry nor overwrite it.
    SearchStats inner_stats;
    TranspositionMemo inner;
    EXPECT_FALSE(inner.Dominated(7, 4, 3, 9.0, &inner_stats));
    EXPECT_TRUE(inner.Dominated(7, 4, 3, 9.5, &inner_stats));
    EXPECT_EQ(inner_stats.store_inserts, 1u);
    EXPECT_EQ(inner_stats.store_hits, 1u);
    EXPECT_EQ(inner.size(), 1u);
  }
  // The outer entry survived the inner memo, and still dominates.
  EXPECT_TRUE(outer.Dominated(7, 4, 3, 6.0, &outer_stats));
  EXPECT_EQ(outer.size(), 1u);
  ExpectInvariants(outer_stats, 2, outer);

  // Two search objects interleaved on one thread: each repeats what it does
  // alone.
  Rng rng(0xACE);
  const IndexTree first_tree = MakeRandomTree(&rng, 11, 3);
  const IndexTree second_tree = MakeRandomTree(&rng, 11, 3);
  TopoTreeSearch first = MakeTopoSearch(first_tree);
  TopoTreeSearch second = MakeTopoSearch(second_tree);
  const AllocationResult first_alone = RunSearch(&first, 0);
  const AllocationResult second_alone = RunSearch(&second, 0);
  ExpectSameOutcome(RunSearch(&first, 0), first_alone);
  ExpectSameOutcome(RunSearch(&second, 0), second_alone);
}

TEST(StateStoreReuseTest, ConcurrentPlanManyMatchesSequentialPlans) {
  // Two planner threads each run exact searches with their own tables.
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

// ---------------------------------------------------------------------------
// Concurrent searches, one table each
// ---------------------------------------------------------------------------

// Eight threads search the same shared tree at once, each with its own search
// object and so its own table. Every one must reach the global minimum with
// exactly the single-threaded search's work.
TEST(StateStoreStressTest, EightThreadRaceConvergesToTheGlobalMinimum) {
  constexpr int kThreads = 8;
  Rng rng(0x5EED);
  const IndexTree tree = MakeRandomTree(&rng, /*num_data=*/12,
                                        /*max_fanout=*/3);
  TopoTreeSearch reference_search = MakeTopoSearch(tree);
  const AllocationResult reference = RunSearch(&reference_search, 0);
  ASSERT_GT(reference.stats.store_hits, 0u);

  std::vector<AllocationResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TopoTreeSearch search = MakeTopoSearch(tree);
      for (int round = 0; round < 3; ++round) {
        results[static_cast<size_t>(t)] = RunSearch(&search, 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    ExpectSameOutcome(results[static_cast<size_t>(t)], reference);
  }
}

// Concurrent searches whose tables cannot hold their states: eviction
// accounting stays exact in every one of them.
TEST(StateStoreStressTest, ConcurrentOverflowKeepsCountersConsistent) {
  constexpr int kThreads = 8;
  constexpr size_t kCap = 16;
  Rng rng(0x5EED);
  const IndexTree tree = MakeRandomTree(&rng, /*num_data=*/12,
                                        /*max_fanout=*/3);
  TopoTreeSearch reference_search = MakeTopoSearch(tree);
  reference_search.ResetMemoForTesting(kCap);
  const AllocationResult reference = RunSearch(&reference_search, 0);
  EXPECT_GT(reference.stats.store_evictions, 0u);
  EXPECT_LE(reference.stats.store_inserts - reference.stats.store_dominated,
            kCap);

  std::vector<AllocationResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TopoTreeSearch search = MakeTopoSearch(tree);
      search.ResetMemoForTesting(kCap);
      results[static_cast<size_t>(t)] = RunSearch(&search, 0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    const AllocationResult& result = results[static_cast<size_t>(t)];
    ExpectSameOutcome(result, reference);
    // Every state expanded is a complete path or a non-goal state the memo
    // recorded or left unrecorded, never one it skipped.
    EXPECT_EQ(result.stats.nodes_expanded,
              result.stats.paths_completed + result.stats.store_inserts +
                  result.stats.store_evictions);
  }
}

}  // namespace
}  // namespace bcast
