// Randomized differential harness for the allocation algorithms.
//
// Every algorithm family is run on the same randomized inputs and the
// results are cross-checked three ways:
//   1. each output passes the AllocationVerifier, claimed ADW included;
//   2. the cost chain holds:
//        lower bound <= optimal <= {each heuristic, flat preorder broadcast};
//   3. a concrete schedule built from the winning slot sequence agrees with
//      the slot-sequence price.
//
// Hundreds of seeds keep the exact search affordable by bounding the tree
// size; the balanced-tree sweep exercises the larger heuristic-only regime
// with the paper's uniform/normal/Zipf workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc/baselines.h"
#include "alloc/heuristics.h"
#include "alloc/optimal.h"
#include "alloc/topo_search.h"
#include "broadcast/cost.h"
#include "broadcast/schedule_builder.h"
#include "fault/fault_model.h"
#include "sim/client_sim.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "verify/verifier.h"
#include "workload/weights.h"

namespace bcast {
namespace {

constexpr double kEps = 1e-9;

// Verifies one algorithm output end to end; returns its ADW.
double CheckResult(const IndexTree& tree, int num_channels,
                   const AllocationResult& result, const std::string& what) {
  VerifyReport report = AllocationVerifier(tree).VerifySlots(
      num_channels, result.slots, result.average_data_wait);
  EXPECT_TRUE(report.ok()) << what << ":\n" << report.ToString();
  EXPECT_TRUE(report.priced) << what;
  return result.average_data_wait;
}

TEST(DifferentialHarnessTest, RandomTreesOptimalVsHeuristicsVsFlat) {
  for (uint64_t seed = 0; seed < 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9E3779B9u + 1);
    const int num_data = 3 + static_cast<int>(seed % 6);
    const int max_fanout = 2 + static_cast<int>(seed % 3);
    IndexTree tree = MakeRandomTree(&rng, num_data, max_fanout);
    const int k = 1 + static_cast<int>(seed % 3);

    auto optimal = FindOptimalAllocation(tree, k, OptimalOptions{});
    auto sorting = SortingHeuristic(tree, k);
    auto shrinking = ShrinkingHeuristic(tree, k);
    auto preorder = PreorderBaseline(tree, k);
    ASSERT_TRUE(optimal.ok()) << optimal.status().ToString();
    ASSERT_TRUE(sorting.ok()) << sorting.status().ToString();
    ASSERT_TRUE(shrinking.ok()) << shrinking.status().ToString();
    ASSERT_TRUE(preorder.ok()) << preorder.status().ToString();

    double opt = CheckResult(tree, k, *optimal, "optimal");
    double sort = CheckResult(tree, k, *sorting, "sorting");
    double shrink = CheckResult(tree, k, *shrinking, "shrinking");
    double flat = CheckResult(tree, k, *preorder, "preorder");

    EXPECT_LE(DataWaitLowerBound(tree, k), opt + kEps);
    EXPECT_LE(opt, sort + kEps);
    EXPECT_LE(opt, shrink + kEps);
    // Note: heuristic <= flat is NOT a theorem (an unsorted preorder can get
    // lucky on tiny trees); only the exact search dominates everything.
    EXPECT_LE(opt, flat + kEps);

    // The channel-assigned schedule must price identically to the winning
    // slot sequence.
    auto schedule = BuildScheduleFromSlots(tree, k, optimal->slots);
    ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
    EXPECT_NEAR(AverageDataWait(tree, *schedule), opt, 1e-6);
    VerifyReport report = AllocationVerifier(tree).VerifySchedule(*schedule);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

TEST(DifferentialHarnessTest, SequentialDfsNodeConservation) {
  // Counter-correctness invariant of the instrumented DFS: every node is the
  // root, or generated and then eliminated by exactly one of {subset-level
  // pruning rule, bound cutoff, memo hit}, or expanded:
  //   nodes_expanded == 1 + nodes_generated - nodes_pruned - bound_cutoffs
  //                     - store_hits.
  // (Properties 2/3 drop candidates before they become generated subsets, so
  // they appear in pruned_by_rule but in neither nodes_generated nor
  // nodes_pruned.)
  for (uint64_t seed = 0; seed < 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9E3779B9u + 1);
    const int num_data = 3 + static_cast<int>(seed % 6);
    const int max_fanout = 2 + static_cast<int>(seed % 3);
    IndexTree tree = MakeRandomTree(&rng, num_data, max_fanout);
    const int k = 1 + static_cast<int>(seed % 3);

    TopoTreeSearch::Options options;
    options.num_channels = k;
    options.prune_candidates = true;
    options.prune_local_swap = true;
    auto search = TopoTreeSearch::Create(tree, options);
    ASSERT_TRUE(search.ok()) << search.status().ToString();
    auto result = search->FindOptimalDfs();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const SearchStats& stats = result->stats;
    EXPECT_EQ(stats.nodes_expanded,
              1 + stats.nodes_generated - stats.nodes_pruned -
                  stats.bound_cutoffs - stats.store_hits);
    EXPECT_GE(stats.paths_completed, 1u);
    EXPECT_GE(stats.incumbent_updates, 1u);
    // The subset-level per-rule tally must reconcile with nodes_pruned.
    EXPECT_EQ(stats.nodes_pruned, stats.pruned_by_rule.lemma3 +
                                      stats.pruned_by_rule.lemma4 +
                                      stats.pruned_by_rule.lemma5);
  }
}

TEST(DifferentialHarnessTest, SequentialDfsGoldenDigest) {
  // Byte-identity pin for the exact optimizer: one digest over every slot
  // sequence and ADW bit pattern the pruned DFS returns on the main sweep's
  // 120 instances. The constant was computed with the DFS before it had a
  // transposition memo, so a memo that changed which (cost, canonical-lex)
  // minimal path is returned — or a single ADW bit — fails here.
  uint64_t digest = 0;
  for (uint64_t seed = 0; seed < 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9E3779B9u + 1);
    const int num_data = 3 + static_cast<int>(seed % 6);
    const int max_fanout = 2 + static_cast<int>(seed % 3);
    IndexTree tree = MakeRandomTree(&rng, num_data, max_fanout);
    const int k = 1 + static_cast<int>(seed % 3);

    TopoTreeSearch::Options options;
    options.num_channels = k;
    options.prune_candidates = true;
    options.prune_local_swap = true;
    auto search = TopoTreeSearch::Create(tree, options);
    ASSERT_TRUE(search.ok()) << search.status().ToString();
    auto result = search->FindOptimalDfs();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    digest = MixSeed(digest ^ result->slots.size());
    for (const std::vector<NodeId>& slot : result->slots) {
      digest = MixSeed(digest ^ slot.size());
      for (NodeId id : slot) {
        digest = MixSeed(digest ^ static_cast<uint64_t>(id));
      }
    }
    digest =
        MixSeed(digest ^ std::bit_cast<uint64_t>(result->average_data_wait));
  }
  EXPECT_EQ(digest, 0x90f9c1eac8b05f4full);
}

TEST(DifferentialHarnessTest, ParallelSearchIsThreadCountInvariant) {
  // OptimalOptions::num_threads is still accepted but no longer reaches the
  // single-threaded exact search: for every thread count the facade returns
  // an allocation BYTE-IDENTICAL to the directly driven DFS (same slot
  // sequence, exactly the same ADW double) that passes the verifier. Same
  // seed formula as the main sweep, so both cover the same instances.
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9E3779B9u + 1);
    const int num_data = 3 + static_cast<int>(seed % 6);
    const int max_fanout = 2 + static_cast<int>(seed % 3);
    IndexTree tree = MakeRandomTree(&rng, num_data, max_fanout);
    const int k = 1 + static_cast<int>(seed % 3);

    OptimalOptions facade;
    auto reference = FindOptimalAllocation(tree, k, facade);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    CheckResult(tree, k, *reference, "facade");
    for (int threads : {2, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      facade.num_threads = threads;
      auto result = FindOptimalAllocation(tree, k, facade);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->slots, reference->slots);
      EXPECT_EQ(result->average_data_wait, reference->average_data_wait);
      EXPECT_EQ(result->stats.nodes_expanded, reference->stats.nodes_expanded);
    }

    // Where the facade runs the topological-tree search (k > 1 and narrower
    // than the widest level), it returns exactly the DFS's allocation.
    if (k == 1 || k >= tree.max_level_width()) continue;
    TopoTreeSearch::Options options;
    options.num_channels = k;
    options.prune_candidates = true;
    options.prune_local_swap = true;
    auto search = TopoTreeSearch::Create(tree, options);
    ASSERT_TRUE(search.ok()) << search.status().ToString();
    auto direct = search->FindOptimalDfs();
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct->slots, reference->slots);
    EXPECT_EQ(direct->average_data_wait, reference->average_data_wait);
  }
}

TEST(DifferentialHarnessTest, IncumbentSeedingIsAPureUpperBound) {
  // The seeding contract (alloc/topo_search.h): a feasible-cost seed may
  // only shrink the searched tree, never change the answer. Seeded and
  // unseeded runs must return BYTE-IDENTICAL slots/ADW, directly and through
  // the facade, and the seeded DFS never expands more nodes than the
  // unseeded one. Same seed formula as the other sweeps so all harnesses
  // cover the same instances.
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9E3779B9u + 1);
    const int num_data = 3 + static_cast<int>(seed % 6);
    const int max_fanout = 2 + static_cast<int>(seed % 3);
    IndexTree tree = MakeRandomTree(&rng, num_data, max_fanout);
    const int k = 1 + static_cast<int>(seed % 3);

    TopoTreeSearch::Options options;
    options.num_channels = k;
    options.prune_candidates = true;
    options.prune_local_swap = true;
    auto search = TopoTreeSearch::Create(tree, options);
    ASSERT_TRUE(search.ok()) << search.status().ToString();
    auto unseeded = search->FindOptimalDfs();
    ASSERT_TRUE(unseeded.ok()) << unseeded.status().ToString();

    // Seed exactly as FindOptimalAllocation does: the sorting heuristic's
    // cost with relative float slack.
    auto heuristic = SortingHeuristic(tree, k);
    ASSERT_TRUE(heuristic.ok()) << heuristic.status().ToString();
    const double seed_v = heuristic->average_data_wait *
                          tree.total_data_weight() * (1.0 + 1e-9);

    auto seeded = search->FindOptimalDfs(seed_v);
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
    EXPECT_EQ(seeded->slots, unseeded->slots);
    EXPECT_EQ(seeded->average_data_wait, unseeded->average_data_wait);
    EXPECT_LE(seeded->stats.nodes_expanded, unseeded->stats.nodes_expanded);

    // The tightest valid seed — the optimum's own cost — must also keep the
    // optimum reachable (the strict-> cutoff at work).
    const double exact_v =
        unseeded->average_data_wait * tree.total_data_weight() * (1.0 + 1e-9);
    auto tight = search->FindOptimalDfs(exact_v);
    ASSERT_TRUE(tight.ok()) << tight.status().ToString();
    EXPECT_EQ(tight->slots, unseeded->slots);
    EXPECT_EQ(tight->average_data_wait, unseeded->average_data_wait);

    // Facade: every SeedIncumbent mode returns the same bytes.
    for (auto mode : {OptimalOptions::SeedIncumbent::kNone,
                      OptimalOptions::SeedIncumbent::kHeuristic,
                      OptimalOptions::SeedIncumbent::kPrevious}) {
      OptimalOptions facade;
      facade.seed_incumbent = mode;
      if (mode == OptimalOptions::SeedIncumbent::kPrevious) {
        // Warm-start with the previous "cycle's" allocation — here the
        // optimum itself, the hardest case for the strict cutoff.
        facade.warm_start_adw = unseeded->average_data_wait;
      }
      auto result = FindOptimalAllocation(tree, k, facade);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (k >= tree.max_level_width() || k == 1) continue;  // fast paths
      EXPECT_EQ(result->slots, unseeded->slots);
      EXPECT_EQ(result->average_data_wait, unseeded->average_data_wait);
    }
  }
}

TEST(DifferentialHarnessTest, FaultInjectedSimulationLeavesScheduleVerified) {
  // Fault injection lives entirely in the medium: however hard the simulated
  // clients hammer the recovery ladder, the underlying allocation must still
  // pass the same verifier gate as before the run, and the simulated means
  // over *successful* accesses must stay consistent with the analytic costs
  // (loss delays delivery, it never accelerates it).
  for (uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0xA5A5A5A5u + 3);
    Rng tree_rng = rng.Substream(RngStream::kTree);
    IndexTree tree = MakeRandomTree(&tree_rng, 4 + static_cast<int>(seed % 5),
                                    2 + static_cast<int>(seed % 3));
    const int k = 1 + static_cast<int>(seed % 3);

    auto optimal = FindOptimalAllocation(tree, k, OptimalOptions{});
    ASSERT_TRUE(optimal.ok()) << optimal.status().ToString();
    auto schedule = BuildScheduleFromSlots(tree, k, optimal->slots);
    ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
    auto sim = ClientSimulator::Create(tree, *schedule);
    ASSERT_TRUE(sim.ok()) << sim.status().ToString();

    ChannelLossSpec spec;
    if (seed % 2 == 0) {
      spec.kind = LossModelKind::kBernoulli;
      spec.loss_prob = 0.15;
      spec.corrupt_fraction = 0.25;
    } else {
      spec.kind = LossModelKind::kGilbertElliott;
      spec.p_good_to_bad = 0.05;
      spec.p_bad_to_good = 0.4;
    }
    SimOptions options;
    options.num_queries = 4'000;
    auto faults = FaultModel::CreateUniform(k, spec);
    ASSERT_TRUE(faults.ok()) << faults.status().ToString();
    options.faults = *faults;
    SimReport report = sim->Run(&rng, options);

    EXPECT_GT(report.success_rate, 0.9);
    EXPECT_GT(report.buckets_lost + report.buckets_corrupted, 0u);
    EXPECT_GE(report.mean_data_wait, 0.0);

    VerifyReport verified = AllocationVerifier(tree).VerifySchedule(*schedule);
    EXPECT_TRUE(verified.ok()) << verified.ToString();
    // The lossy mean over successes can only sit at or above the lossless
    // analytic expectation (retries add whole cycles, minus sampling noise).
    EXPECT_GE(report.mean_data_wait,
              0.8 * AverageDataWait(tree, *schedule) - 1.0);
  }
}

TEST(DifferentialHarnessTest, BalancedTreesHeuristicsVsFlat) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0xD1B54A33u + 7);
    const int fanout = 2 + static_cast<int>(seed % 2);
    const int depth = 3 + static_cast<int>(seed % 2);
    int leaves = 1;
    for (int level = 1; level < depth; ++level) leaves *= fanout;

    std::vector<double> weights;
    switch (seed % 3) {
      case 0:
        weights = UniformWeights(&rng, leaves, 1.0, 100.0);
        break;
      case 1:
        weights = NormalWeights(&rng, leaves, 100.0, 40.0);
        break;
      default:
        weights = ZipfWeights(leaves, 0.95);
        break;
    }
    auto tree = MakeFullBalancedTree(fanout, depth, weights);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    const int k = 1 + static_cast<int>(seed % 4);

    auto sorting = SortingHeuristic(*tree, k);
    auto shrinking = ShrinkingHeuristic(*tree, k);
    auto preorder = PreorderBaseline(*tree, k);
    ASSERT_TRUE(sorting.ok()) << sorting.status().ToString();
    ASSERT_TRUE(shrinking.ok()) << shrinking.status().ToString();
    ASSERT_TRUE(preorder.ok()) << preorder.status().ToString();

    double sort = CheckResult(*tree, k, *sorting, "sorting");
    double shrink = CheckResult(*tree, k, *shrinking, "shrinking");
    double flat = CheckResult(*tree, k, *preorder, "preorder");

    double bound = DataWaitLowerBound(*tree, k);
    EXPECT_LE(bound, sort + kEps);
    EXPECT_LE(bound, shrink + kEps);
    // Empirical on these fixed seeds (not a theorem; see the random-tree
    // sweep): on structured balanced trees the better heuristic always beats
    // the flat preorder broadcast.
    EXPECT_LE(std::min(sort, shrink), flat + kEps);
  }
}

}  // namespace
}  // namespace bcast
