#include "core/planner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc/optimal.h"
#include "alloc/topo_search.h"
#include "tree/builders.h"
#include "tree/tree_io.h"
#include "util/rng.h"

namespace bcast {
namespace {

TEST(PlannerTest, AutoUsesLevelAllocationForWideChannels) {
  IndexTree tree = MakePaperExampleTree();
  PlannerOptions options;
  options.num_channels = 4;  // >= widest level
  auto plan = PlanBroadcast(tree, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->strategy_used, PlanStrategy::kLevelAllocation);
  EXPECT_EQ(plan->allocation.slots.size(), 4u);
}

TEST(PlannerTest, AutoUsesOptimalForSmallTrees) {
  IndexTree tree = MakePaperExampleTree();
  PlannerOptions options;
  options.num_channels = 2;
  auto plan = PlanBroadcast(tree, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->strategy_used, PlanStrategy::kOptimal);
  auto reference = FindOptimalAllocation(tree, 2);
  ASSERT_TRUE(reference.ok());
  EXPECT_NEAR(plan->costs.average_data_wait, reference->average_data_wait,
              1e-9);
}

TEST(PlannerTest, AutoUsesHeuristicsForLargeTrees) {
  Rng rng(21);
  IndexTree tree = MakeRandomTree(&rng, 100, 3);
  PlannerOptions options;
  options.num_channels = 2;
  auto plan = PlanBroadcast(tree, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->strategy_used == PlanStrategy::kSorting ||
              plan->strategy_used == PlanStrategy::kShrinking);
  EXPECT_TRUE(ValidateSchedule(tree, plan->schedule).ok());
}

TEST(PlannerTest, ExplicitStrategiesAreHonored) {
  Rng rng(22);
  IndexTree tree = MakeRandomTree(&rng, 10, 3);
  for (PlanStrategy strategy :
       {PlanStrategy::kOptimal, PlanStrategy::kSorting,
        PlanStrategy::kShrinking, PlanStrategy::kPreorder,
        PlanStrategy::kGreedyWeight}) {
    PlannerOptions options;
    options.num_channels = 2;
    options.strategy = strategy;
    auto plan = PlanBroadcast(tree, options);
    ASSERT_TRUE(plan.ok()) << PlanStrategyName(strategy);
    EXPECT_EQ(plan->strategy_used, strategy);
    EXPECT_TRUE(ValidateSchedule(tree, plan->schedule).ok());
    EXPECT_GT(plan->costs.average_data_wait, 0.0);
  }
}

TEST(PlannerTest, CostAgreesWithAllocation) {
  Rng rng(23);
  IndexTree tree = MakeRandomTree(&rng, 8, 3);
  PlannerOptions options;
  options.num_channels = 2;
  options.strategy = PlanStrategy::kSorting;
  auto plan = PlanBroadcast(tree, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->allocation.average_data_wait,
              plan->costs.average_data_wait, 1e-9)
      << "slot-sequence cost and schedule cost must agree";
}

TEST(PlannerTest, ErrorsPropagate) {
  IndexTree tree = MakePaperExampleTree();
  PlannerOptions options;
  options.num_channels = 0;
  EXPECT_FALSE(PlanBroadcast(tree, options).ok());

  options.num_channels = 2;
  options.strategy = PlanStrategy::kLevelAllocation;  // needs 4 channels
  EXPECT_FALSE(PlanBroadcast(tree, options).ok());

  IndexTree unfinalized;
  unfinalized.AddIndexNode(kInvalidNode, "r");
  options.strategy = PlanStrategy::kAuto;
  EXPECT_FALSE(PlanBroadcast(unfinalized, options).ok());
}

TEST(PlannerTest, StrategyNamesAreStable) {
  EXPECT_STREQ(PlanStrategyName(PlanStrategy::kOptimal), "optimal");
  EXPECT_STREQ(PlanStrategyName(PlanStrategy::kSorting), "sorting");
  EXPECT_STREQ(PlanStrategyName(PlanStrategy::kShrinking), "shrinking");
  EXPECT_STREQ(PlanStrategyName(PlanStrategy::kLevelAllocation), "level");
}

TEST(PlannerTest, SingleDataNodeTree) {
  IndexTree tree;
  tree.AddDataNode(kInvalidNode, 5.0, "only");
  ASSERT_TRUE(tree.Finalize().ok());
  PlannerOptions options;
  options.num_channels = 1;
  auto plan = PlanBroadcast(tree, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->costs.average_data_wait, 1.0, 1e-9);
}

constexpr char kPaperTree[] = "(1 (2 A:20 B:10) (3 (4 C:15 D:7) E:18))";

TEST(OptimalOptionsTest, NumThreadsDispatchesToTheSameAnswer) {
  // num_threads no longer reaches the single-threaded exact search: any
  // non-negative value returns the same allocation, a negative one is
  // still rejected.
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto reference = FindOptimalAllocation(*tree, 2, OptimalOptions{});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  OptimalOptions options;
  options.num_threads = 8;
  auto result = FindOptimalAllocation(*tree, 2, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->slots, reference->slots);
  EXPECT_EQ(result->average_data_wait, reference->average_data_wait);

  OptimalOptions bad;
  bad.num_threads = -2;
  auto rejected = FindOptimalAllocation(*tree, 2, bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(OptimalOptionsTest, BoundKindIsForwardedToTheTopoSearch) {
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  SearchStats direct_stats[2];
  AllocationResult via_options[2];
  const TopoTreeSearch::BoundKind kinds[2] = {
      TopoTreeSearch::BoundKind::kPaperNextSlot,
      TopoTreeSearch::BoundKind::kPacked};
  for (int i = 0; i < 2; ++i) {
    TopoTreeSearch::Options topo_options;
    topo_options.num_channels = 2;
    topo_options.prune_candidates = true;
    topo_options.prune_local_swap = true;
    topo_options.bound = kinds[i];
    auto search = TopoTreeSearch::Create(*tree, topo_options);
    ASSERT_TRUE(search.ok()) << search.status().ToString();
    auto direct = search->FindOptimalDfs();
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    direct_stats[i] = direct->stats;

    OptimalOptions options;
    options.bound = kinds[i];
    // Unseeded, so the facade's expansion count can be compared against the
    // directly-driven (also unseeded) search.
    options.seed_incumbent = OptimalOptions::SeedIncumbent::kNone;
    auto result = FindOptimalAllocation(*tree, 2, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    via_options[i] = *result;
    // The facade must reproduce the directly-configured search exactly —
    // expansion counts included, which pin the bound actually used.
    EXPECT_EQ(result->stats.nodes_expanded, direct_stats[i].nodes_expanded);
    EXPECT_EQ(result->average_data_wait, direct->average_data_wait);
  }
  // Both bounds are admissible, so the answer agrees; the looser paper bound
  // prunes less on this instance, which proves the knob reaches the search.
  EXPECT_EQ(via_options[0].slots, via_options[1].slots);
  EXPECT_GT(direct_stats[0].nodes_expanded, direct_stats[1].nodes_expanded);
}

TEST(PlanManyTest, MatchesPlanBroadcastPerRequest) {
  auto tree_a = ParseTree(kPaperTree);
  auto tree_b = ParseTree("(1 A:5 (2 B:9 C:3) D:1)");
  auto tree_c = ParseTree("(1 (2 A:4 B:4) (3 C:4 D:4))");
  ASSERT_TRUE(tree_a.ok() && tree_b.ok() && tree_c.ok());

  std::vector<PlanRequest> requests;
  PlannerOptions options;
  options.num_channels = 2;
  options.strategy = PlanStrategy::kOptimal;
  requests.push_back({&*tree_a, options});
  options.num_channels = 1;
  requests.push_back({&*tree_b, options});
  options.strategy = PlanStrategy::kSorting;
  requests.push_back({&*tree_c, options});

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::vector<Result<BroadcastPlan>> plans = PlanMany(requests, threads);
    ASSERT_EQ(plans.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      auto expected =
          PlanBroadcast(*requests[i].tree, requests[i].options);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_TRUE(plans[i].ok()) << plans[i].status().ToString();
      EXPECT_EQ(plans[i]->strategy_used, expected->strategy_used);
      EXPECT_EQ(plans[i]->allocation.slots, expected->allocation.slots);
      EXPECT_EQ(plans[i]->costs.average_data_wait,
                expected->costs.average_data_wait);
    }
  }
}

TEST(PlanManyTest, PerRequestErrorsStayInTheirSlot) {
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  PlannerOptions good;
  good.num_channels = 2;
  PlannerOptions bad;
  bad.num_channels = 0;  // rejected by PlanBroadcast

  std::vector<PlanRequest> requests;
  requests.push_back({&*tree, good});
  requests.push_back({nullptr, good});
  requests.push_back({&*tree, bad});

  std::vector<Result<BroadcastPlan>> plans = PlanMany(requests, 2);
  ASSERT_EQ(plans.size(), 3u);
  EXPECT_TRUE(plans[0].ok()) << plans[0].status().ToString();
  ASSERT_FALSE(plans[1].ok());
  EXPECT_EQ(plans[1].status().code(), StatusCode::kInvalidArgument);
  ASSERT_FALSE(plans[2].ok());
  EXPECT_EQ(plans[2].status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanManyTest, EmptyBatchIsANoOp) {
  EXPECT_TRUE(PlanMany({}, 4).empty());
}

}  // namespace
}  // namespace bcast
