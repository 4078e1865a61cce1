// Focused coverage of the best-first optimizer (the paper's §3.1 search
// strategy): with pruning enabled its dominance key must include the last
// compound node (neighbor generation depends on it), and both bound choices
// must stay exact.

#include <gtest/gtest.h>

#include "alloc/topo_search.h"
#include "param_printer.h"
#include "tree/builders.h"
#include "util/rng.h"

namespace bcast {
namespace {

struct Case {
  uint64_t seed;
  int num_data;
  int channels;
};

void PrintTo(const Case& c, std::ostream* os) {
  PrintFieldBytes(c, os, &Case::seed, &Case::num_data, &Case::channels);
}

class BestFirstPrunedTest : public ::testing::TestWithParam<Case> {};

TEST_P(BestFirstPrunedTest, PrunedBestFirstMatchesPrunedDfs) {
  const Case& param = GetParam();
  Rng rng(param.seed);
  IndexTree tree = MakeRandomTree(&rng, param.num_data, 3, /*max_nodes=*/13);

  TopoTreeSearch::Options options;
  options.num_channels = param.channels;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  auto search = TopoTreeSearch::Create(tree, options);
  ASSERT_TRUE(search.ok());
  auto dfs = search->FindOptimalDfs();
  auto best_first = search->FindOptimalBestFirst();
  ASSERT_TRUE(dfs.ok());
  ASSERT_TRUE(best_first.ok()) << best_first.status().ToString();
  EXPECT_NEAR(dfs->average_data_wait, best_first->average_data_wait, 1e-9)
      << tree.ToString();
  EXPECT_TRUE(
      ValidateSlotSequence(tree, param.channels, best_first->slots).ok());
}

TEST_P(BestFirstPrunedTest, PaperBoundBestFirstIsAlsoExact) {
  const Case& param = GetParam();
  Rng rng(param.seed ^ 0x5A5A);
  IndexTree tree = MakeRandomTree(&rng, param.num_data, 3, /*max_nodes=*/12);

  TopoTreeSearch::Options packed;
  packed.num_channels = param.channels;
  TopoTreeSearch::Options paper = packed;
  paper.bound = TopoTreeSearch::BoundKind::kPaperNextSlot;
  auto a = TopoTreeSearch::Create(tree, packed);
  auto b = TopoTreeSearch::Create(tree, paper);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ra = a->FindOptimalBestFirst();
  auto rb = b->FindOptimalBestFirst();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_NEAR(ra->average_data_wait, rb->average_data_wait, 1e-9);
}

std::vector<Case> MakeCases() {
  std::vector<Case> cases;
  uint64_t seed = 60'000;
  for (int channels = 1; channels <= 3; ++channels) {
    for (int num_data = 3; num_data <= 7; ++num_data) {
      for (int rep = 0; rep < 3; ++rep) {
        cases.push_back({seed++, num_data, channels});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, BestFirstPrunedTest,
                         ::testing::ValuesIn(MakeCases()));

TEST(BestFirstTest, HonorsExpansionBudget) {
  Rng rng(61'000);
  IndexTree tree = MakeRandomTree(&rng, 8, 3);
  TopoTreeSearch::Options options;
  options.num_channels = 1;
  options.max_expansions = 3;
  auto search = TopoTreeSearch::Create(tree, options);
  ASSERT_TRUE(search.ok());
  auto result = search->FindOptimalBestFirst();
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(BestFirstTest, ReportsSingleCompletedPath) {
  IndexTree tree = MakePaperExampleTree();
  TopoTreeSearch::Options options;
  options.num_channels = 2;
  auto search = TopoTreeSearch::Create(tree, options);
  ASSERT_TRUE(search.ok());
  auto result = search->FindOptimalBestFirst();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.paths_completed, 1u)
      << "best-first stops at the first goal it pops";
  EXPECT_NEAR(result->average_data_wait, 264.0 / 70.0, 1e-9);
}

}  // namespace
}  // namespace bcast
