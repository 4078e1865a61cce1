// The contract the parallel branch-and-bound engine used to state, held
// against the memoized sequential DFS that replaced it: the optimum on a toy
// instance, transposition skipping, the dead-end error, the expansion budget,
// option validation, and an allocation that does not depend on the thread
// count a caller asks for (OptimalOptions::num_threads is still accepted).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/optimal.h"
#include "alloc/topo_search.h"
#include "tree/builders.h"
#include "tree/index_tree.h"
#include "tree/tree_io.h"
#include "util/rng.h"
#include "util/status.h"

namespace bcast {
namespace {

constexpr char kPaperTree[] = "(1 (2 A:20 B:10) (3 (4 C:15 D:7) E:18))";

// Four data items of weights 3, 2, 1 and 0.5 under one index root. Several
// orders reach the same allocated set with different costs, which is what
// the transposition memo skips.
constexpr char kToyTree[] = "(1 A:3 B:2 C:1 D:0.5)";

TopoTreeSearch::Options PrunedOptions(int channels) {
  TopoTreeSearch::Options options;
  options.num_channels = channels;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  return options;
}

NodeId FindLabel(const IndexTree& tree, const std::string& label) {
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (tree.label(id) == label) return id;
  }
  ADD_FAILURE() << "no node labelled " << label;
  return -1;
}

TEST(ParallelSearchTest, ToyProblemFindsHeaviestFirstOptimum) {
  auto tree = ParseTree(kToyTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  OptimalOptions options;
  options.num_threads = 4;
  auto result = FindOptimalAllocation(*tree, 2, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Heaviest first, two per slot after the root: V = 2 * 5 + 3 * 1.5.
  const NodeId a = FindLabel(*tree, "A");
  const NodeId b = FindLabel(*tree, "B");
  const NodeId c = FindLabel(*tree, "C");
  const NodeId d = FindLabel(*tree, "D");
  ASSERT_EQ(result->slots.size(), 3u);
  EXPECT_EQ(result->slots[1], (std::vector<NodeId>{a, b}));
  EXPECT_EQ(result->slots[2], (std::vector<NodeId>{c, d}));
  EXPECT_DOUBLE_EQ(result->average_data_wait, 14.5 / 6.5);
  EXPECT_GE(result->stats.paths_completed, 1u);
}

TEST(ParallelSearchTest, CacheSkipsDominatedStateExactlyOnce) {
  // On the toy tree (root 0, A..D = 1..4, one channel) the state
  // (allocated {root, A, B, C}, last set {C}, slot 4) is entered by the
  // canonical prefix [A, B, C] at V = 16 and later by [B, A, C] at V = 17.
  // The first visit is recorded and expanded; the second is skipped.
  SearchStats stats;
  TranspositionMemo memo;
  EXPECT_FALSE(memo.Dominated(0b1111, 0b1000, 4, 16.0, &stats));
  EXPECT_TRUE(memo.Dominated(0b1111, 0b1000, 4, 17.0, &stats));
  EXPECT_EQ(stats.store_inserts, 1u);
  EXPECT_EQ(stats.store_hits, 1u);

  // On a whole search the memo saves expansions but never changes the
  // answer; a memo that records nothing skips nothing.
  Rng rng(0x5EED);
  const IndexTree tree = MakeRandomTree(&rng, /*num_data=*/12,
                                        /*max_fanout=*/3);
  auto cached = TopoTreeSearch::Create(tree, PrunedOptions(2));
  auto uncached = TopoTreeSearch::Create(tree, PrunedOptions(2));
  ASSERT_TRUE(cached.ok() && uncached.ok());
  uncached->ResetMemoForTesting(0);
  auto with_memo = cached->FindOptimalDfs();
  auto without = uncached->FindOptimalDfs();
  ASSERT_TRUE(with_memo.ok()) << with_memo.status().ToString();
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  EXPECT_GT(with_memo->stats.store_hits, 0u);
  EXPECT_EQ(without->stats.store_hits, 0u);
  EXPECT_EQ(with_memo->slots, without->slots);
  EXPECT_EQ(with_memo->average_data_wait, without->average_data_wait);
  EXPECT_LT(with_memo->stats.nodes_expanded, without->stats.nodes_expanded);
}

TEST(ParallelSearchTest, ResultInvariantAcrossThreadCounts) {
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto reference = FindOptimalAllocation(*tree, 2, OptimalOptions{});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int threads : {0, 1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    OptimalOptions options;
    options.num_threads = threads;
    auto result = FindOptimalAllocation(*tree, 2, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->slots, reference->slots);
    EXPECT_EQ(result->average_data_wait,
              reference->average_data_wait);  // exact, not approximate
    // One sequential search: even the work counters repeat.
    EXPECT_EQ(result->stats.nodes_expanded, reference->stats.nodes_expanded);
    EXPECT_EQ(result->stats.store_hits, reference->stats.store_hits);
  }
}

TEST(ParallelSearchTest, RejectsNegativeOptions) {
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  OptimalOptions options;
  options.num_threads = -1;
  auto result = FindOptimalAllocation(*tree, 2, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  result = FindOptimalAllocation(*tree, 0, OptimalOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelSearchTest, ExpansionBudgetIsEnforced) {
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  OptimalOptions options;
  options.num_threads = 4;
  options.max_expansions = 3;
  auto result = FindOptimalAllocation(*tree, 2, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParallelSearchTest, UnreachableGoalReportsInternalError) {
  // An incumbent seed below the true optimum cuts every path before it
  // completes: the search reports the dead end rather than a wrong plan.
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto search = TopoTreeSearch::Create(*tree, PrunedOptions(2));
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  auto optimum = search->FindOptimalDfs();
  ASSERT_TRUE(optimum.ok()) << optimum.status().ToString();
  const double optimal_v =
      optimum->average_data_wait * tree->total_data_weight();
  auto result = search->FindOptimalDfs(/*seed_cost_v=*/0.5 * optimal_v);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(TopoParallelTest, MatchesSingleThreadedSearchByteForByte) {
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto search = TopoTreeSearch::Create(*tree, PrunedOptions(2));
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  auto sequential = search->FindOptimalDfs();
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    OptimalOptions options;
    options.num_threads = threads;
    auto planned = FindOptimalAllocation(*tree, 2, options);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_EQ(planned->slots, sequential->slots);
    EXPECT_EQ(planned->average_data_wait, sequential->average_data_wait);
    EXPECT_GE(planned->stats.nodes_expanded, 1u);
    EXPECT_GE(planned->stats.paths_completed, 1u);
  }
}

}  // namespace
}  // namespace bcast
