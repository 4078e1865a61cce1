// The resilient client (sim/client_sim.h) under a faulty medium, driven by
// its population simulator.

#include <gtest/gtest.h>

#include <vector>

#include "alloc/replication.h"
#include "core/planner.h"
#include "fault/fault_model.h"
#include "must_simulate.h"
#include "popsim/popsim.h"
#include "tree/builders.h"
#include "util/rng.h"

namespace bcast {
namespace {

BroadcastPlan MustPlan(const IndexTree& tree, int channels,
                       int root_copies = 1) {
  PlannerOptions options;
  options.num_channels = channels;
  options.strategy = PlanStrategy::kSorting;
  options.replication.root_copies = root_copies;
  auto plan = PlanBroadcast(tree, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

FaultModel MustUniform(int channels, const ChannelLossSpec& spec) {
  auto model = FaultModel::CreateUniform(channels, spec);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

ChannelLossSpec BernoulliSpec(double p, double corrupt_fraction = 0.0) {
  ChannelLossSpec spec;
  spec.kind = LossModelKind::kBernoulli;
  spec.loss_prob = p;
  spec.corrupt_fraction = corrupt_fraction;
  return spec;
}

// Field-by-field exact comparison; doubles compared with == on purpose
// (the contract under test is bit-identity, not approximation).
void ExpectReportsIdentical(const PopReport& a, const PopReport& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.num_clients, b.num_clients);
  EXPECT_EQ(a.mean_probe_wait, b.mean_probe_wait);
  EXPECT_EQ(a.mean_data_wait, b.mean_data_wait);
  EXPECT_EQ(a.mean_access_time, b.mean_access_time);
  EXPECT_EQ(a.mean_tuning_time, b.mean_tuning_time);
  EXPECT_EQ(a.mean_switches, b.mean_switches);
  EXPECT_EQ(a.listen_fraction, b.listen_fraction);
  EXPECT_EQ(a.num_succeeded, b.num_succeeded);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.buckets_lost, b.buckets_lost);
  EXPECT_EQ(a.buckets_corrupted, b.buckets_corrupted);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.cycle_restarts, b.cycle_restarts);
  EXPECT_EQ(a.sequential_scans, b.sequential_scans);
  EXPECT_EQ(a.p50_access_time, b.p50_access_time);
  EXPECT_EQ(a.p95_access_time, b.p95_access_time);
  EXPECT_EQ(a.p99_access_time, b.p99_access_time);
  EXPECT_EQ(a.rng_query_draws, b.rng_query_draws);
  EXPECT_EQ(a.rng_fault_draws, b.rng_fault_draws);
}

TEST(ResilientClientTest, ZeroLossConfigsAreBitIdenticalToLosslessDefault) {
  // Acceptance gate: with every loss probability at zero the fault-injected
  // simulator must reproduce the lossless simulator bit for bit under the
  // same seed — configuring (but never realizing) faults may not perturb
  // query sampling, and no fault draw is made.
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto sim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(sim.ok());

  PopReport baseline = MustSimulate(*sim, 20'000, 2026);
  EXPECT_EQ(baseline.num_succeeded, baseline.num_clients);
  EXPECT_EQ(baseline.success_rate, 1.0);
  EXPECT_EQ(baseline.buckets_lost, 0u);
  EXPECT_EQ(baseline.retries, 0u);

  ChannelLossSpec zero_bernoulli = BernoulliSpec(0.0);
  ChannelLossSpec zero_ge;
  zero_ge.kind = LossModelKind::kGilbertElliott;
  zero_ge.p_good_to_bad = 0.05;
  zero_ge.p_bad_to_good = 0.5;
  zero_ge.loss_good = 0.0;
  zero_ge.loss_bad = 0.0;  // bad state exists but never faults
  for (const ChannelLossSpec& spec : {zero_bernoulli, zero_ge}) {
    ExpectReportsIdentical(
        MustSimulate(*sim, 20'000, 2026, MustUniform(2, spec)), baseline);
  }
}

TEST(ResilientClientTest, DeterministicUnderFixedSeed) {
  Rng tree_rng = Rng(404).Substream(RngStream::kTree);
  IndexTree tree = MakeRandomTree(&tree_rng, 24, 3);
  BroadcastPlan plan = MustPlan(tree, 2);
  auto sim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(sim.ok());

  FaultModel faults = MustUniform(2, BernoulliSpec(0.15, 0.3));
  ExpectReportsIdentical(MustSimulate(*sim, 10'000, 11, faults),
                         MustSimulate(*sim, 10'000, 11, faults));
}

TEST(ResilientClientTest, TenPercentLossWithReplicationDeliversAtLeast99Pct) {
  // Acceptance gate: 10% Bernoulli loss + replicated index -> >= 99% success,
  // with the recovery machinery visibly engaged and the tail stretched.
  Rng tree_rng = Rng(505).Substream(RngStream::kTree);
  IndexTree tree = MakeRandomTree(&tree_rng, 30, 3);
  BroadcastPlan plan = MustPlan(tree, 2, /*root_copies=*/2);
  ASSERT_TRUE(plan.replicated.has_value());
  auto sim = PopulationSimulator::Create(tree, *plan.replicated);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();

  PopReport report =
      MustSimulate(*sim, 20'000, 909, MustUniform(2, BernoulliSpec(0.10)));

  EXPECT_GE(report.success_rate, 0.99);
  EXPECT_GT(report.buckets_lost, 0u);
  EXPECT_GT(report.retries, 0u);
  // Retries push the tail out beyond the median.
  EXPECT_LE(report.p50_access_time, report.p95_access_time);
  EXPECT_LE(report.p95_access_time, report.p99_access_time);
  EXPECT_GT(report.p99_access_time, report.p50_access_time);
  // Means cover successful accesses only, so they stay finite and coherent.
  EXPECT_NEAR(report.mean_access_time,
              report.mean_probe_wait + report.mean_data_wait, 1e-9);
}

TEST(ResilientClientTest, PlainScheduleSurvivesModerateLossViaRetries) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto sim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(sim.ok());

  PopReport report =
      MustSimulate(*sim, 20'000, 1337, MustUniform(2, BernoulliSpec(0.10)));
  // Without replicas every retry waits a full cycle, but delivery still
  // succeeds almost always within the retry/restart/scan budget.
  EXPECT_GE(report.success_rate, 0.99);
  EXPECT_GT(report.retries, 0u);
  // Loss inflates access time relative to the lossless analytic mean.
  EXPECT_GT(report.mean_access_time,
            plan.costs.average_data_wait + plan.costs.cycle_length / 2.0);
}

TEST(ResilientClientTest, CorruptionIsCountedSeparatelyFromLoss) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 1);
  auto sim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(sim.ok());

  PopReport report = MustSimulate(
      *sim, 5'000, 55, MustUniform(1, BernoulliSpec(0.2, /*corrupt_fraction=*/1.0)));
  EXPECT_GT(report.buckets_corrupted, 0u);
  EXPECT_EQ(report.buckets_lost, 0u);
}

TEST(ResilientClientTest, HeavyLossDegradesToSequentialScan) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto sim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(sim.ok());

  RecoveryOptions recovery;
  recovery.max_retries_per_hop = 1;
  recovery.max_cycle_restarts = 0;
  PopReport report = MustSimulate(*sim, 2'000, 77,
                                  MustUniform(2, BernoulliSpec(0.5)), recovery);
  // Half the buckets vanish: the pointer chain breaks constantly, yet the
  // scan fallback keeps overall delivery alive.
  EXPECT_GT(report.sequential_scans, 0u);
  EXPECT_GT(report.success_rate, 0.5);
}

TEST(ResilientClientTest, GilbertElliottBurstLossSurvivesScanFallback) {
  // Regression: a hop that exhausts its retries has already observed its
  // channel past the last successful read. The restart backoff and the
  // sequential scan must resume at or after that slot — the Gilbert–Elliott
  // per-channel state enforces forward-only observations and aborts the
  // process on any rewind. loss_bad = 1 with a tight recovery budget forces
  // both the restart and the scan path under bursty loss.
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto sim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(sim.ok());

  RecoveryOptions recovery;
  recovery.max_retries_per_hop = 1;
  recovery.max_cycle_restarts = 1;
  ChannelLossSpec spec;
  spec.kind = LossModelKind::kGilbertElliott;
  spec.p_good_to_bad = 0.3;
  spec.p_bad_to_good = 0.05;
  spec.loss_good = 0.0;
  spec.loss_bad = 1.0;  // a burst wipes out every bucket until it ends
  PopReport report =
      MustSimulate(*sim, 2'000, 2718, MustUniform(2, spec), recovery);
  EXPECT_GT(report.cycle_restarts, 0u);
  EXPECT_GT(report.sequential_scans, 0u);
  EXPECT_GT(report.num_succeeded, 0u);
}

TEST(ResilientClientTest, TotalLossExhaustsEveryFallback) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto sim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(sim.ok());

  PopReport report =
      MustSimulate(*sim, 200, 99, MustUniform(2, BernoulliSpec(1.0)));
  EXPECT_EQ(report.num_succeeded, 0u);
  EXPECT_EQ(report.success_rate, 0.0);
  EXPECT_GT(report.sequential_scans, 0u);
  // No successful access -> empty percentile set reported as zeros.
  EXPECT_EQ(report.p99_access_time, 0.0);
}

TEST(ResilientClientTest, ReplicasShortenLossyTailVersusPlainSchedule) {
  // The robustness payoff of src/alloc/replication.cc: under the same loss
  // process, index replicas give the client earlier retry points, so the
  // replicated p99 must not exceed the plain p99 scaled by its longer cycle.
  Rng tree_rng = Rng(606).Substream(RngStream::kTree);
  IndexTree tree = MakeRandomTree(&tree_rng, 30, 3);
  BroadcastPlan plain = MustPlan(tree, 2);
  BroadcastPlan replicated = MustPlan(tree, 2, /*root_copies=*/2);
  ASSERT_TRUE(replicated.replicated.has_value());
  auto plain_sim = PopulationSimulator::Create(tree, plain.schedule);
  auto repl_sim = PopulationSimulator::Create(tree, *replicated.replicated);
  ASSERT_TRUE(plain_sim.ok());
  ASSERT_TRUE(repl_sim.ok());

  FaultModel faults = MustUniform(2, BernoulliSpec(0.10));
  PopReport plain_report = MustSimulate(*plain_sim, 20'000, 31, faults);
  PopReport repl_report = MustSimulate(*repl_sim, 20'000, 31, faults);

  double plain_cycle = static_cast<double>(plain.costs.cycle_length);
  double repl_cycle = static_cast<double>(replicated.replicated->cycle_length);
  EXPECT_LE(repl_report.p99_access_time / repl_cycle,
            plain_report.p99_access_time / plain_cycle * 1.10)
      << "replicated p99 " << repl_report.p99_access_time << " over cycle "
      << repl_cycle << " vs plain p99 " << plain_report.p99_access_time
      << " over cycle " << plain_cycle;
  EXPECT_GE(repl_report.success_rate, plain_report.success_rate - 0.005);
}

}  // namespace
}  // namespace bcast
