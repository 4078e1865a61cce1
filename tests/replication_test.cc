#include "alloc/replication.h"

#include <gtest/gtest.h>

#include "alloc/heuristics.h"
#include "alloc/optimal.h"
#include "must_simulate.h"
#include "popsim/popsim.h"
#include "tree/builders.h"
#include "util/rng.h"

namespace bcast {
namespace {

SlotSequence OptimalSlots(const IndexTree& tree, int channels) {
  auto result = FindOptimalAllocation(tree, channels);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->slots;
}

TEST(ReplicationTest, OneCopyReproducesTheBaseCycle) {
  IndexTree tree = MakePaperExampleTree();
  SlotSequence slots = OptimalSlots(tree, 1);
  auto program = BuildReplicatedProgram(tree, slots, 1, {.root_copies = 1});
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->cycle_length, static_cast<int>(slots.size()));
  EXPECT_EQ(program->root_slots, std::vector<int>{0});
  EXPECT_TRUE(ValidateReplicatedProgram(tree, *program).ok());
}

TEST(ReplicationTest, CopiesExtendTheCycleByOneColumnEach) {
  IndexTree tree = MakePaperExampleTree();
  SlotSequence slots = OptimalSlots(tree, 2);
  for (int copies = 1; copies <= 4; ++copies) {
    auto program =
        BuildReplicatedProgram(tree, slots, 2, {.root_copies = copies});
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_EQ(program->cycle_length,
              static_cast<int>(slots.size()) + copies - 1);
    EXPECT_EQ(static_cast<int>(program->root_slots.size()), copies);
    EXPECT_TRUE(ValidateReplicatedProgram(tree, *program).ok())
        << ValidateReplicatedProgram(tree, *program).ToString();
  }
}

TEST(ReplicationTest, RejectsBadOptions) {
  IndexTree tree = MakePaperExampleTree();
  SlotSequence slots = OptimalSlots(tree, 1);
  EXPECT_FALSE(
      BuildReplicatedProgram(tree, slots, 1, {.root_copies = 0}).ok());
  EXPECT_FALSE(
      BuildReplicatedProgram(tree, slots, 1, {.root_copies = 1000}).ok());
}

TEST(ReplicationTest, BaseCostsMatchTheUnreplicatedModel) {
  // With a single root copy the expected access time must equal the base
  // model's E[cycle - t] + ADW = cycle/2 + ADW.
  IndexTree tree = MakePaperExampleTree();
  auto optimal = FindOptimalAllocation(tree, 2);
  ASSERT_TRUE(optimal.ok());
  auto program =
      BuildReplicatedProgram(tree, optimal->slots, 2, {.root_copies = 1});
  ASSERT_TRUE(program.ok());
  ReplicatedCosts costs = ComputeReplicatedCosts(tree, *program);
  double cycle = program->cycle_length;
  EXPECT_NEAR(costs.expected_probe_wait, cycle / 2.0 + 1.0, 1e-9)
      << "probe = E[cycle - t] + the root bucket itself";
  EXPECT_NEAR(costs.expected_access_time,
              cycle / 2.0 + optimal->average_data_wait, 1e-9);
}

TEST(ReplicationTest, MoreCopiesCutTheProbeWait) {
  Rng rng(88);
  IndexTree tree = MakeRandomTree(&rng, 30, 3);
  OptimalOptions cheap;
  cheap.max_expansions = 1;
  auto base = FindOptimalAllocation(tree, 2, cheap);
  // Fall back to a heuristic if the exact search is not instant.
  SlotSequence slots;
  if (base.ok()) {
    slots = base->slots;
  } else {
    auto sorting = SortingHeuristic(tree, 2);
    ASSERT_TRUE(sorting.ok());
    slots = sorting->slots;
  }
  double last_probe = 1e18;
  for (int copies : {1, 2, 4, 8}) {
    auto program =
        BuildReplicatedProgram(tree, slots, 2, {.root_copies = copies});
    ASSERT_TRUE(program.ok());
    ReplicatedCosts costs = ComputeReplicatedCosts(tree, *program);
    EXPECT_LT(costs.expected_probe_wait, last_probe);
    last_probe = costs.expected_probe_wait;
  }
}

TEST(ReplicationTest, SimulationMatchesAnalyticCosts) {
  IndexTree tree = MakePaperExampleTree();
  SlotSequence slots = OptimalSlots(tree, 2);
  for (int copies : {1, 2, 3}) {
    auto program =
        BuildReplicatedProgram(tree, slots, 2, {.root_copies = copies});
    ASSERT_TRUE(program.ok());
    ReplicatedCosts analytic = ComputeReplicatedCosts(tree, *program);
    // ComputeReplicatedCosts' Monte-Carlo cross-check: a client's probe
    // wait runs to the end of its first root read, its data wait from there
    // to the data bucket, and its tuning counts the probe bucket, the root
    // and every hop — the analytic model's (2 + hops).
    auto sim = PopulationSimulator::Create(tree, *program);
    ASSERT_TRUE(sim.ok()) << sim.status().ToString();
    PopReport simulated = MustSimulate(*sim, 200'000, 999);
    EXPECT_NEAR(simulated.mean_probe_wait, analytic.expected_probe_wait,
                analytic.expected_probe_wait * 0.02)
        << copies << " copies";
    EXPECT_NEAR(simulated.mean_access_time, analytic.expected_access_time,
                analytic.expected_access_time * 0.02);
    EXPECT_NEAR(simulated.mean_tuning_time, analytic.expected_tuning_time,
                0.05);
  }
}

TEST(ReplicationTest, ProbeLatencyTradeOffOnLongCycles) {
  // Root replication cannot make the (fixed) data buckets come sooner: to
  // first order the expected access time is unchanged and only inflates with
  // the extra columns. What replication buys is a much earlier first index
  // read (probe wait), i.e. the client knows sooner exactly when to wake up.
  Rng rng(77);
  IndexTree tree = MakeRandomTree(&rng, 50, 3);
  auto sorting = SortingHeuristic(tree, 1);
  ASSERT_TRUE(sorting.ok());
  double one_copy_access = 0.0, one_copy_probe = 0.0;
  for (int copies : {1, 8}) {
    auto program =
        BuildReplicatedProgram(tree, sorting->slots, 1, {.root_copies = copies});
    ASSERT_TRUE(program.ok());
    ReplicatedCosts costs = ComputeReplicatedCosts(tree, *program);
    if (copies == 1) {
      one_copy_access = costs.expected_access_time;
      one_copy_probe = costs.expected_probe_wait;
      continue;
    }
    EXPECT_LT(costs.expected_probe_wait, one_copy_probe / 4.0)
        << "8 copies must cut the probe wait by far more than 4x";
    EXPECT_LT(costs.expected_access_time, one_copy_access * 1.15)
        << "access inflation stays bounded by the extra columns";
    EXPECT_GT(costs.expected_access_time, one_copy_access * 0.85)
        << "root-only replication cannot dramatically cut access time";
  }
}

TEST(ReplicationTest, LevelReplicationCarriesTopIndexLevels) {
  IndexTree tree = MakePaperExampleTree();  // levels: {1}, {2,3}, {A,B,4,E}...
  SlotSequence slots = OptimalSlots(tree, 2);
  ReplicationOptions options;
  options.root_copies = 3;
  options.replicate_levels = 2;  // root + index nodes 2, 3
  auto program = BuildReplicatedProgram(tree, slots, 2, options);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(ValidateReplicatedProgram(tree, *program).ok())
      << ValidateReplicatedProgram(tree, *program).ToString();
  auto id_of = [&](const std::string& label) {
    for (NodeId id = 0; id < tree.num_nodes(); ++id) {
      if (tree.label(id) == label) return id;
    }
    return kInvalidNode;
  };
  // Root, 2 and 3 get 3 occurrences each; 4 (level 3) and data stay single.
  EXPECT_EQ(program->occurrences[static_cast<size_t>(tree.root())].size(), 3u);
  EXPECT_EQ(program->occurrences[static_cast<size_t>(id_of("2"))].size(), 3u);
  EXPECT_EQ(program->occurrences[static_cast<size_t>(id_of("3"))].size(), 3u);
  EXPECT_EQ(program->occurrences[static_cast<size_t>(id_of("4"))].size(), 1u);
  EXPECT_EQ(program->occurrences[static_cast<size_t>(id_of("A"))].size(), 1u);
}

TEST(ReplicationTest, LevelSweepKeepsCostIdentities) {
  // Across the (copies, levels) grid: programs validate, costs decompose as
  // access = probe + walk, and the cycle grows by exactly
  // (copies - 1) · block columns. No monotonicity in `levels` is asserted —
  // deeper segments trade shorter first hops against cycle inflation, and
  // bench_replication shows the empirical sweet spot.
  Rng rng(808);
  IndexTree tree = MakeRandomTree(&rng, 40, 3);
  auto sorting = SortingHeuristic(tree, 2);
  ASSERT_TRUE(sorting.ok());
  int base_cycle = -1;
  for (int levels : {1, 2, 3}) {
    int block_columns = -1;
    for (int copies : {1, 3, 6}) {
      ReplicationOptions options;
      options.root_copies = copies;
      options.replicate_levels = levels;
      auto program = BuildReplicatedProgram(tree, sorting->slots, 2, options);
      ASSERT_TRUE(program.ok());
      ASSERT_TRUE(ValidateReplicatedProgram(tree, *program).ok());
      if (copies == 1) {
        if (base_cycle < 0) base_cycle = program->cycle_length;
        EXPECT_EQ(program->cycle_length, base_cycle)
            << "one copy must reproduce the base cycle at any level count";
      } else if (block_columns < 0) {
        block_columns = (program->cycle_length - base_cycle) / (copies - 1);
        EXPECT_GT(block_columns, 0);
      } else {
        EXPECT_EQ(program->cycle_length,
                  base_cycle + (copies - 1) * block_columns);
      }
      ReplicatedCosts costs = ComputeReplicatedCosts(tree, *program);
      EXPECT_GT(costs.expected_walk_time, 0.0);
      EXPECT_NEAR(costs.expected_access_time,
                  costs.expected_probe_wait + costs.expected_walk_time, 1e-9);
    }
  }
}

TEST(ReplicationTest, LevelReplicationSimulationAgrees) {
  IndexTree tree = MakePaperExampleTree();
  SlotSequence slots = OptimalSlots(tree, 2);
  ReplicationOptions options;
  options.root_copies = 2;
  options.replicate_levels = 2;
  auto program = BuildReplicatedProgram(tree, slots, 2, options);
  ASSERT_TRUE(program.ok());
  ReplicatedCosts analytic = ComputeReplicatedCosts(tree, *program);
  auto sim = PopulationSimulator::Create(tree, *program);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  PopReport simulated = MustSimulate(*sim, 200'000, 515);
  EXPECT_NEAR(simulated.mean_access_time, analytic.expected_access_time,
              analytic.expected_access_time * 0.02);
  EXPECT_NEAR(simulated.mean_probe_wait, analytic.expected_probe_wait,
              analytic.expected_probe_wait * 0.03);
}

TEST(ReplicationTest, RejectsBadLevelCount) {
  IndexTree tree = MakePaperExampleTree();
  SlotSequence slots = OptimalSlots(tree, 1);
  ReplicationOptions options;
  options.replicate_levels = 0;
  EXPECT_FALSE(BuildReplicatedProgram(tree, slots, 1, options).ok());
}

}  // namespace
}  // namespace bcast
