// The client access protocol (sim/client_sim.h) driven by its population
// simulator, checked against the analytic cost model of Section 2.2.

#include "sim/client_sim.h"

#include <gtest/gtest.h>

#include "alloc/optimal.h"
#include "broadcast/cost.h"
#include "broadcast/schedule_builder.h"
#include "core/planner.h"
#include "must_simulate.h"
#include "popsim/popsim.h"
#include "tree/builders.h"
#include "util/rng.h"

namespace bcast {
namespace {

BroadcastPlan MustPlan(const IndexTree& tree, int channels,
                       PlanStrategy strategy = PlanStrategy::kOptimal) {
  PlannerOptions options;
  options.num_channels = channels;
  options.strategy = strategy;
  auto plan = PlanBroadcast(tree, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

TEST(ClientSimTest, ConvergesToAnalyticCostsOnPaperExample) {
  IndexTree tree = MakePaperExampleTree();
  for (int channels : {1, 2}) {
    BroadcastPlan plan = MustPlan(tree, channels);
    auto sim = PopulationSimulator::Create(tree, plan.schedule);
    ASSERT_TRUE(sim.ok());
    PopReport report = MustSimulate(*sim, 200'000, 515);

    EXPECT_NEAR(report.mean_data_wait, plan.costs.average_data_wait,
                plan.costs.average_data_wait * 0.01)
        << "channels = " << channels;
    EXPECT_NEAR(report.mean_tuning_time, plan.costs.average_tuning_time + 1.0,
                0.05)
        << "simulated tuning includes the initial probe bucket";
    EXPECT_NEAR(report.mean_switches, plan.costs.average_switches, 0.05);
    // Probe wait is uniform over the cycle: mean = cycle/2.
    EXPECT_NEAR(report.mean_probe_wait, plan.costs.cycle_length / 2.0,
                plan.costs.cycle_length * 0.02);
    EXPECT_NEAR(report.mean_access_time,
                report.mean_probe_wait + report.mean_data_wait, 1e-9);
    EXPECT_GT(report.listen_fraction, 0.0);
    EXPECT_LT(report.listen_fraction, 1.0);
  }
}

TEST(ClientSimTest, IndexedClientListensToFarFewerBucketsThanItWaits) {
  // The power-saving argument of the paper's introduction: with an index,
  // tuning time (energy) is much smaller than access time (latency).
  // Tree generation and the clients live on separate streams, so changing
  // one (e.g. simulating more clients) never reshapes the other.
  Rng tree_rng = Rng(616).Substream(RngStream::kTree);
  IndexTree tree = MakeRandomTree(&tree_rng, 30, 3);
  BroadcastPlan plan = MustPlan(tree, 2, PlanStrategy::kSorting);
  auto sim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(sim.ok());
  PopReport report = MustSimulate(*sim, 50'000, 616);
  EXPECT_LT(report.mean_tuning_time, report.mean_access_time / 3.0);
}

TEST(ClientSimTest, WorksAcrossStrategiesAndChannels) {
  Rng tree_rng = Rng(717).Substream(RngStream::kTree);
  IndexTree tree = MakeRandomTree(&tree_rng, 12, 3);
  for (PlanStrategy strategy :
       {PlanStrategy::kSorting, PlanStrategy::kShrinking,
        PlanStrategy::kGreedyWeight, PlanStrategy::kPreorder}) {
    for (int channels : {1, 3}) {
      BroadcastPlan plan = MustPlan(tree, channels, strategy);
      auto sim = PopulationSimulator::Create(tree, plan.schedule);
      ASSERT_TRUE(sim.ok()) << PlanStrategyName(strategy);
      PopReport report = MustSimulate(*sim, 20'000, 717);
      EXPECT_NEAR(report.mean_data_wait, plan.costs.average_data_wait,
                  plan.costs.average_data_wait * 0.05)
          << PlanStrategyName(strategy) << " @ " << channels << " channels";
    }
  }
}

TEST(ClientSimTest, RejectsInfeasibleSchedule) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastSchedule schedule(1, tree.num_nodes());
  std::vector<NodeId> order = tree.PreorderSequence();
  std::swap(order[0], order[1]);
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(schedule.Place(order[i], 0, static_cast<int>(i)).ok());
  }
  EXPECT_FALSE(ClientSimulator::Create(tree, schedule).ok());
  EXPECT_FALSE(PopulationSimulator::Create(tree, schedule).ok());
}

}  // namespace
}  // namespace bcast
