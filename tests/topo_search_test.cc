#include "alloc/topo_search.h"

#include <gtest/gtest.h>

#include "alloc/allocation.h"
#include "alloc/baselines.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "workload/weights.h"

namespace bcast {
namespace {

TopoTreeSearch::Options MakeOptions(int channels, bool pruned) {
  TopoTreeSearch::Options options;
  options.num_channels = channels;
  options.prune_candidates = pruned;
  options.prune_local_swap = pruned;
  return options;
}

// --- exact counts on the paper's example tree -------------------------------

TEST(TopoSearchTest, PaperExampleUnprunedPathCountsAreLinearExtensions) {
  IndexTree tree = MakePaperExampleTree();
  // One channel: paths = topological sorts of the index tree = 9! times the
  // product of hook-length style constraints. Computed independently: the
  // number of linear extensions of this forest-shaped poset.
  auto search1 = TopoTreeSearch::Create(tree, MakeOptions(1, false));
  ASSERT_TRUE(search1.ok());
  auto count1 = search1->CountPaths(1'000'000);
  ASSERT_TRUE(count1.ok());
  // The unpruned 1-channel paths are exactly the linear extensions of the
  // index-tree poset; by the tree hook-length formula that is
  //   9! / (9·3·1·1·5·3·1·1·1) = 362880 / 405 = 896   (the Fig. 6 tree).
  EXPECT_EQ(*count1, 896u);
}

TEST(TopoSearchTest, PaperExamplePrunedTreeIsMuchSmaller) {
  IndexTree tree = MakePaperExampleTree();
  auto unpruned = TopoTreeSearch::Create(tree, MakeOptions(1, false));
  auto pruned = TopoTreeSearch::Create(tree, MakeOptions(1, true));
  ASSERT_TRUE(unpruned.ok());
  ASSERT_TRUE(pruned.ok());
  auto unpruned_nodes = unpruned->CountTreeNodes(10'000'000);
  auto pruned_nodes = pruned->CountTreeNodes(10'000'000);
  ASSERT_TRUE(unpruned_nodes.ok());
  ASSERT_TRUE(pruned_nodes.ok());
  EXPECT_LT(*pruned_nodes, *unpruned_nodes / 4)
      << "pruning should shrink the Fig. 6 tree toward the Fig. 9 tree";
}

TEST(TopoSearchTest, PaperExampleTwoChannelPrunedPaths) {
  // Fig. 10: after pruning, the 2-channel topological tree keeps only a
  // couple of paths (the paper draws 2).
  IndexTree tree = MakePaperExampleTree();
  auto pruned = TopoTreeSearch::Create(tree, MakeOptions(2, true));
  ASSERT_TRUE(pruned.ok());
  auto paths = pruned->CountPaths(1'000'000);
  ASSERT_TRUE(paths.ok());
  auto unpruned = TopoTreeSearch::Create(tree, MakeOptions(2, false));
  auto unpruned_paths = unpruned->CountPaths(1'000'000);
  ASSERT_TRUE(unpruned_paths.ok());
  EXPECT_LE(*paths, 8u);
  EXPECT_GT(*unpruned_paths, *paths * 4);
}

// --- optimality against exhaustive enumeration ------------------------------

struct RandomCase {
  uint64_t seed;
  int num_data;
  int max_fanout;
  int channels;
};

class PrunedVsExhaustiveTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(PrunedVsExhaustiveTest, PrunedSearchKeepsAnOptimalPath) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed);
  IndexTree tree = MakeRandomTree(&rng, param.num_data, param.max_fanout);
  if (tree.num_nodes() > 13) GTEST_SKIP() << "exhaustive too large";

  auto exhaustive =
      TopoTreeSearch::Create(tree, MakeOptions(param.channels, false));
  ASSERT_TRUE(exhaustive.ok());
  auto truth = exhaustive->FindOptimalDfs();
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();

  auto pruned = TopoTreeSearch::Create(tree, MakeOptions(param.channels, true));
  ASSERT_TRUE(pruned.ok());
  auto fast = pruned->FindOptimalDfs();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  EXPECT_NEAR(fast->average_data_wait, truth->average_data_wait, 1e-9)
      << "pruning must preserve at least one optimal path\n"
      << tree.ToString();
  EXPECT_TRUE(
      ValidateSlotSequence(tree, param.channels, fast->slots).ok());
}

TEST_P(PrunedVsExhaustiveTest, BestFirstMatchesDfs) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed);
  IndexTree tree = MakeRandomTree(&rng, param.num_data, param.max_fanout);
  if (tree.num_nodes() > 13) GTEST_SKIP() << "exhaustive too large";

  auto search = TopoTreeSearch::Create(tree, MakeOptions(param.channels, false));
  ASSERT_TRUE(search.ok());
  auto dfs = search->FindOptimalDfs();
  auto best_first = search->FindOptimalBestFirst();
  ASSERT_TRUE(dfs.ok());
  ASSERT_TRUE(best_first.ok());
  EXPECT_NEAR(dfs->average_data_wait, best_first->average_data_wait, 1e-9);
  EXPECT_TRUE(
      ValidateSlotSequence(tree, param.channels, best_first->slots).ok());
}

TEST_P(PrunedVsExhaustiveTest, PaperBoundMatchesPackedBound) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed);
  IndexTree tree = MakeRandomTree(&rng, param.num_data, param.max_fanout);
  if (tree.num_nodes() > 12) GTEST_SKIP() << "exhaustive too large";

  TopoTreeSearch::Options paper_bound = MakeOptions(param.channels, true);
  paper_bound.bound = TopoTreeSearch::BoundKind::kPaperNextSlot;
  auto a = TopoTreeSearch::Create(tree, paper_bound);
  auto b = TopoTreeSearch::Create(tree, MakeOptions(param.channels, true));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ra = a->FindOptimalDfs();
  auto rb = b->FindOptimalDfs();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_NEAR(ra->average_data_wait, rb->average_data_wait, 1e-9)
      << "the bound choice must not change the optimum, only the speed";
  EXPECT_GE(ra->stats.nodes_expanded, rb->stats.nodes_expanded)
      << "the packed bound should never expand more nodes";
}

std::vector<RandomCase> MakeRandomCases() {
  std::vector<RandomCase> cases;
  uint64_t seed = 1000;
  for (int channels = 1; channels <= 3; ++channels) {
    for (int num_data = 2; num_data <= 7; ++num_data) {
      for (int fanout = 2; fanout <= 4; ++fanout) {
        for (int rep = 0; rep < 3; ++rep) {
          cases.push_back({seed++, num_data, fanout, channels});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, PrunedVsExhaustiveTest,
                         ::testing::ValuesIn(MakeRandomCases()));

// --- Corollary 1 -------------------------------------------------------------

TEST(TopoSearchTest, WideChannelsMakeLevelAllocationOptimal) {
  Rng rng(77);
  for (int rep = 0; rep < 10; ++rep) {
    IndexTree tree = MakeRandomTree(&rng, 5, 3);
    if (tree.num_nodes() > 13) continue;
    int k = tree.max_level_width();
    auto level = LevelAllocation(tree, k);
    ASSERT_TRUE(level.ok());
    auto search = TopoTreeSearch::Create(tree, MakeOptions(k, false));
    ASSERT_TRUE(search.ok());
    auto optimal = search->FindOptimalDfs();
    ASSERT_TRUE(optimal.ok());
    EXPECT_NEAR(level->average_data_wait, optimal->average_data_wait, 1e-9)
        << "Corollary 1 violated for\n"
        << tree.ToString();
  }
}

// --- transposition memo ------------------------------------------------------

// deep18_k3 of bench/bench_exact_search.cc: a near-chain tree whose search
// reaches the same states along many prefixes.
IndexTree DeepTree() {
  Rng rng(2);
  return MakeRandomTree(&rng, /*num_data=*/18, /*max_fanout=*/2);
}

TEST(TopoSearchTest, MemoGrowsPastItsFirstTableWithoutChangingTheResult) {
  IndexTree tree = DeepTree();
  auto memoized = TopoTreeSearch::Create(tree, MakeOptions(3, true));
  auto plain = TopoTreeSearch::Create(tree, MakeOptions(3, true));
  ASSERT_TRUE(memoized.ok() && plain.ok());
  plain->ResetMemoForTesting(0);  // records nothing: the plain DFS
  auto with_memo = memoized->FindOptimalDfs();
  auto without = plain->FindOptimalDfs();
  ASSERT_TRUE(with_memo.ok()) << with_memo.status().ToString();
  ASSERT_TRUE(without.ok()) << without.status().ToString();

  EXPECT_EQ(with_memo->slots, without->slots);
  EXPECT_EQ(with_memo->average_data_wait, without->average_data_wait);
  const SearchStats& stats = with_memo->stats;
  EXPECT_GT(stats.store_hits, 0u);
  EXPECT_EQ(stats.store_evictions, 0u);
  // Far more live entries than the first 64-slot table holds at load 1/2.
  EXPECT_GT(stats.store_inserts - stats.store_dominated, 1000u);
  EXPECT_LT(stats.nodes_expanded, without->stats.nodes_expanded);
  EXPECT_EQ(without->stats.store_hits, 0u);

  // A second call on the same object reuses the cleared table and repeats
  // the first call exactly.
  auto again = memoized->FindOptimalDfs();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->slots, with_memo->slots);
  EXPECT_EQ(again->stats.nodes_expanded, stats.nodes_expanded);
  EXPECT_EQ(again->stats.store_hits, stats.store_hits);
}

TEST(TopoSearchTest, MemoEntryCapLeavesTheResultUnchanged) {
  IndexTree tree = DeepTree();
  auto search = TopoTreeSearch::Create(tree, MakeOptions(3, true));
  ASSERT_TRUE(search.ok());
  auto reference = search->FindOptimalDfs();
  ASSERT_TRUE(reference.ok());

  search->ResetMemoForTesting(4);
  auto capped = search->FindOptimalDfs();
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_EQ(capped->slots, reference->slots);
  EXPECT_EQ(capped->average_data_wait, reference->average_data_wait);
  EXPECT_GT(capped->stats.store_evictions, 0u);
  EXPECT_LE(capped->stats.store_inserts - capped->stats.store_dominated, 4u);
  EXPECT_GT(capped->stats.nodes_expanded, reference->stats.nodes_expanded);
}

// --- error paths -------------------------------------------------------------

TEST(TopoSearchTest, RejectsOversizedTrees) {
  Rng rng(5);
  IndexTree tree = MakeRandomTree(&rng, 60, 4);  // > 64 nodes with index nodes
  if (tree.num_nodes() <= 64) GTEST_SKIP() << "tree happened to be small";
  auto search = TopoTreeSearch::Create(tree, MakeOptions(1, true));
  EXPECT_FALSE(search.ok());
  EXPECT_EQ(search.status().code(), StatusCode::kInvalidArgument);
}

TEST(TopoSearchTest, RejectsZeroChannels) {
  IndexTree tree = MakePaperExampleTree();
  auto search = TopoTreeSearch::Create(tree, MakeOptions(0, false));
  EXPECT_FALSE(search.ok());
}

TEST(TopoSearchTest, CountPathsHonorsLimit) {
  IndexTree tree = MakePaperExampleTree();
  auto search = TopoTreeSearch::Create(tree, MakeOptions(1, false));
  ASSERT_TRUE(search.ok());
  auto count = search->CountPaths(10);
  EXPECT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace bcast
