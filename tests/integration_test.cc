// End-to-end integration tests: index construction -> planning -> channel
// assignment -> pointer materialization -> simulated client access, on
// realistic scenario workloads (a simulated client population).

#include <gtest/gtest.h>

#include "core/bcast.h"
#include "must_simulate.h"

namespace bcast {
namespace {

// Builds a "stock ticker" catalog: n items with Zipf popularity, indexed by
// an optimal alphabetic tree (tickers stay in key order).
IndexTree MakeZipfCatalog(int n, int fanout, double theta) {
  std::vector<double> weights = ZipfWeights(n, theta);
  std::vector<DataItem> items;
  for (int i = 0; i < n; ++i) {
    items.push_back({"t" + std::to_string(i + 1), weights[static_cast<size_t>(i)]});
  }
  auto tree = n <= 300 ? BuildOptimalAlphabeticTree(items, fanout)
                       : BuildGreedyAlphabeticTree(items, fanout);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(tree).value();
}

TEST(IntegrationTest, FullPipelineSmallCatalog) {
  IndexTree tree = MakeZipfCatalog(12, 3, 0.9);
  for (int channels : {1, 2, 3}) {
    PlannerOptions options;
    options.num_channels = channels;
    auto plan = PlanBroadcast(tree, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(ValidateSchedule(tree, plan->schedule).ok());

    auto pointers = MaterializePointers(tree, plan->schedule);
    ASSERT_TRUE(pointers.ok());

    auto sim = PopulationSimulator::Create(tree, plan->schedule);
    ASSERT_TRUE(sim.ok());
    PopReport report =
        MustSimulate(*sim, 30'000, 1000 + static_cast<uint64_t>(channels));
    EXPECT_NEAR(report.mean_data_wait, plan->costs.average_data_wait,
                plan->costs.average_data_wait * 0.05);
  }
}

TEST(IntegrationTest, MoreChannelsNeverHurtTheOptimum) {
  IndexTree tree = MakeZipfCatalog(10, 2, 0.8);
  double last = 1e18;
  for (int channels = 1; channels <= 5; ++channels) {
    auto result = FindOptimalAllocation(tree, channels);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_LE(result->average_data_wait, last + 1e-9)
        << "optimum must be monotone in the channel count";
    last = result->average_data_wait;
  }
  // And the widest-level point reaches the analytic floor.
  auto wide = FindOptimalAllocation(tree, tree.max_level_width());
  ASSERT_TRUE(wide.ok());
  double floor = 0.0;
  for (NodeId d : tree.DataNodes()) {
    floor += tree.weight(d) * tree.node(d).level;
  }
  floor /= tree.total_data_weight();
  EXPECT_NEAR(wide->average_data_wait, floor, 1e-9);
}

TEST(IntegrationTest, LargeCatalogHeuristicPipeline) {
  IndexTree tree = MakeZipfCatalog(600, 4, 1.0);
  EXPECT_GT(tree.num_nodes(), 64) << "must exceed the exact-search regime";
  for (PlanStrategy strategy :
       {PlanStrategy::kSorting, PlanStrategy::kShrinking}) {
    PlannerOptions options;
    options.num_channels = 3;
    options.strategy = strategy;
    auto plan = PlanBroadcast(tree, options);
    ASSERT_TRUE(plan.ok()) << PlanStrategyName(strategy) << ": "
                           << plan.status().ToString();
    ASSERT_TRUE(ValidateSchedule(tree, plan->schedule).ok());
    auto sim = PopulationSimulator::Create(tree, plan->schedule);
    ASSERT_TRUE(sim.ok());
    PopReport report = MustSimulate(*sim, 5'000, 7);
    EXPECT_NEAR(report.mean_data_wait, plan->costs.average_data_wait,
                plan->costs.average_data_wait * 0.1);
    // Zipf skew: popular items come early, so the mean data wait should be
    // well under the midpoint of the cycle.
    EXPECT_LT(plan->costs.average_data_wait,
              0.5 * static_cast<double>(plan->costs.cycle_length));
  }
}

TEST(IntegrationTest, SkewBenefitsFromIndexAwareScheduling) {
  // With strong skew, weight-aware scheduling must beat plain preorder. The
  // popularity ranks are shuffled relative to key order: otherwise the
  // alphabetic index already lists items by weight and preorder is already
  // near-sorted.
  std::vector<double> weights = ZipfWeights(200, 1.2);
  Rng shuffle_rng(99);
  shuffle_rng.Shuffle(&weights);
  std::vector<DataItem> items;
  for (int i = 0; i < 200; ++i) {
    items.push_back({"t" + std::to_string(i + 1), weights[static_cast<size_t>(i)]});
  }
  auto built = BuildOptimalAlphabeticTree(items, 3);
  ASSERT_TRUE(built.ok());
  IndexTree tree = std::move(built).value();
  PlannerOptions options;
  options.num_channels = 2;
  options.strategy = PlanStrategy::kSorting;
  auto sorted = PlanBroadcast(tree, options);
  options.strategy = PlanStrategy::kPreorder;
  auto preorder = PlanBroadcast(tree, options);
  ASSERT_TRUE(sorted.ok());
  ASSERT_TRUE(preorder.ok());
  EXPECT_LT(sorted->costs.average_data_wait,
            preorder->costs.average_data_wait);
}

TEST(IntegrationTest, RoundTripThroughTextFormat) {
  IndexTree tree = MakeZipfCatalog(15, 3, 0.7);
  auto parsed = ParseTree(FormatTree(tree));
  ASSERT_TRUE(parsed.ok());
  auto a = FindOptimalAllocation(tree, 2);
  auto b = FindOptimalAllocation(*parsed, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->average_data_wait, b->average_data_wait, 1e-9);
}

}  // namespace
}  // namespace bcast
