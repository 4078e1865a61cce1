// Population-simulator tests. popsim is the only Monte-Carlo driver of
// ClientSimulator::AccessOnce, so the differential tests check what is
// popsim's own against a plain per-client loop: client c's keyed kClient
// substream of the run seed draws its target and arrival, its kFault
// substream feeds a FaultProcess, and one AccessOnce call replays its access.
// popsim's blocked seeding, sharding and counter folding must reproduce
// that loop outcome for outcome, on lossless and faulty media, plain and
// replicated programs. Golden values pin the reports of those same
// configurations, and scheduling invariance holds thread and shard counts
// to changing only the wall clock.

#include "popsim/popsim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "alloc/replication.h"
#include "core/planner.h"
#include "fault/fault_model.h"
#include "sim/client_sim.h"
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

ChannelLossSpec BurstSpec(double loss_bad = 0.9) {
  ChannelLossSpec spec;
  spec.kind = LossModelKind::kGilbertElliott;
  spec.p_good_to_bad = 0.1;
  spec.p_bad_to_good = 0.3;
  spec.loss_good = 0.02;
  spec.loss_bad = loss_bad;
  spec.corrupt_fraction = 0.25;
  return spec;
}

// The reference: each client replayed in a plain loop — its keyed stream
// derived from the run seed, its target drawn by tree weight and its arrival
// uniform over one cycle (the default population), its faults from its own
// kFault substream — checked outcome by outcome, and in its summed recovery
// tallies and draw counts, against the population report.
void ExpectMatchesClientSimulatorLoop(const PopulationSimulator& popsim,
                                      const ClientSimulator& reference,
                                      const PopSimOptions& options) {
  std::vector<ClientOutcome> outcomes;
  auto report = popsim.Run(options, &outcomes);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(outcomes.size(), options.population.num_clients);

  const IndexTree& tree = reference.tree();
  const std::vector<NodeId> data_nodes = tree.DataNodes();
  std::vector<double> cumulative;
  double total = 0.0;
  for (NodeId d : data_nodes) cumulative.push_back(total += tree.weight(d));
  const double cycle = static_cast<double>(reference.cycle_length());

  const Rng base(options.seed);
  RecoveryTally tally;
  uint64_t succeeded = 0, query_draws = 0, fault_draws = 0;
  for (uint64_t id = 0; id < options.population.num_clients; ++id) {
    Rng client_rng = base.Substream(RngStream::kClient, id);
    const double point = client_rng.UniformDouble() * total;
    const size_t index = static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), point) -
        cumulative.begin());
    const NodeId target = data_nodes[std::min(index, data_nodes.size() - 1)];
    const double arrival = client_rng.UniformDouble(0.0, cycle);
    query_draws += client_rng.draw_count();

    Rng fault_rng = client_rng.Substream(RngStream::kFault);
    FaultProcess medium(options.faults, &fault_rng);
    const ClientOutcome want = reference.AccessOnce(
        target, arrival, options.faults.active() ? &medium : nullptr,
        options.recovery, &tally);
    fault_draws += fault_rng.draw_count();

    const ClientOutcome& got = outcomes[id];
    ASSERT_EQ(got.success, want.success) << "client " << id;
    // Bit-exact on purpose: both sides anchor waits at integral slot
    // boundaries, so the doubles must agree exactly, not approximately.
    ASSERT_EQ(got.probe_wait, want.probe_wait) << "client " << id;
    ASSERT_EQ(got.data_wait, want.data_wait) << "client " << id;
    ASSERT_EQ(got.tuning, want.tuning) << "client " << id;
    ASSERT_EQ(got.switches, want.switches) << "client " << id;
    ASSERT_EQ(got.last_slot, want.last_slot) << "client " << id;
    if (want.success) ++succeeded;
  }
  EXPECT_EQ(report->num_succeeded, succeeded);
  EXPECT_EQ(report->buckets_lost, tally.buckets_lost);
  EXPECT_EQ(report->buckets_corrupted, tally.buckets_corrupted);
  EXPECT_EQ(report->retries, tally.retries);
  EXPECT_EQ(report->cycle_restarts, tally.cycle_restarts);
  EXPECT_EQ(report->sequential_scans, tally.sequential_scans);
  EXPECT_EQ(report->rng_query_draws, query_draws);
  EXPECT_EQ(report->rng_fault_draws, fault_draws);
}

TEST(PopSimDifferentialTest, LosslessMatchesClientSimulatorLoop) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  auto reference = ClientSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok()) << popsim.status().ToString();
  ASSERT_TRUE(reference.ok());

  PopSimOptions options;
  options.population.num_clients = 1000;
  options.seed = 0x9d5ab1;
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);
}

TEST(PopSimDifferentialTest, BernoulliFaultsMatchClientSimulatorLoop) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  auto reference = ClientSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());
  ASSERT_TRUE(reference.ok());

  // Loss heavy enough to exercise every recovery rung, including terminal
  // failures under a tightened ladder.
  PopSimOptions options;
  options.population.num_clients = 1000;
  options.seed = 77;
  options.faults = MustUniform(2, BernoulliSpec(0.35, /*corrupt=*/0.4));
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);

  options.recovery.max_retries_per_hop = 1;
  options.recovery.max_cycle_restarts = 0;
  options.recovery.max_scan_passes = 1;
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);

  // Sanity that the fault path was actually walked.
  auto report = popsim->Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->retries, 0u);
  EXPECT_GT(report->sequential_scans, 0u);
  EXPECT_LT(report->num_succeeded, report->num_clients);

  // Recovery budgets past 255 are counted in full, never narrowed.
  options.recovery.max_retries_per_hop = 0;
  options.recovery.max_cycle_restarts = 256;
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);

  // A dead second channel: a hop aired there burns all 300 retries before
  // the client falls back to the scan.
  auto dead = FaultModel::Create({ChannelLossSpec{}, BernoulliSpec(1.0)});
  ASSERT_TRUE(dead.ok());
  options.faults = *dead;
  options.population.num_clients = 20;
  options.recovery.max_retries_per_hop = 300;
  options.recovery.max_cycle_restarts = 0;
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);
}

TEST(PopSimDifferentialTest, GilbertElliottFaultsMatchClientSimulatorLoop) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 3);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  auto reference = ClientSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());
  ASSERT_TRUE(reference.ok());

  // Bursty medium: the per-slot chain advance draws many fault values per
  // client, across channels whose chains are realized lazily.
  PopSimOptions options;
  options.population.num_clients = 500;
  options.seed = 0xbadcab1e;
  options.faults = MustUniform(3, BurstSpec());
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);
}

TEST(PopSimDifferentialTest, ReplicatedProgramMatchesClientSimulatorLoop) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2, /*root_copies=*/2);
  ASSERT_TRUE(plan.replicated.has_value());
  auto popsim = PopulationSimulator::Create(tree, *plan.replicated);
  auto reference = ClientSimulator::Create(tree, *plan.replicated);
  ASSERT_TRUE(popsim.ok()) << popsim.status().ToString();
  ASSERT_TRUE(reference.ok());

  PopSimOptions options;
  options.population.num_clients = 800;
  options.seed = 4242;
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);

  options.faults = MustUniform(2, BernoulliSpec(0.3, 0.5));
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);
}

// Every field of the report that is not an execution-shape echo
// (threads_used / shards_used) must be identical.
void ExpectReportsIdentical(const PopReport& a, const PopReport& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.num_succeeded, b.num_succeeded);
  EXPECT_EQ(a.mean_probe_wait, b.mean_probe_wait);
  EXPECT_EQ(a.mean_data_wait, b.mean_data_wait);
  EXPECT_EQ(a.mean_access_time, b.mean_access_time);
  EXPECT_EQ(a.mean_tuning_time, b.mean_tuning_time);
  EXPECT_EQ(a.mean_switches, b.mean_switches);
  EXPECT_EQ(a.p50_access_time, b.p50_access_time);
  EXPECT_EQ(a.p95_access_time, b.p95_access_time);
  EXPECT_EQ(a.p99_access_time, b.p99_access_time);
  EXPECT_EQ(a.p50_data_wait, b.p50_data_wait);
  EXPECT_EQ(a.p95_data_wait, b.p95_data_wait);
  EXPECT_EQ(a.p99_data_wait, b.p99_data_wait);
  EXPECT_EQ(a.p50_tuning_time, b.p50_tuning_time);
  EXPECT_EQ(a.p95_tuning_time, b.p95_tuning_time);
  EXPECT_EQ(a.p99_tuning_time, b.p99_tuning_time);
  EXPECT_EQ(a.buckets_lost, b.buckets_lost);
  EXPECT_EQ(a.buckets_corrupted, b.buckets_corrupted);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.cycle_restarts, b.cycle_restarts);
  EXPECT_EQ(a.sequential_scans, b.sequential_scans);
  EXPECT_EQ(a.last_slot, b.last_slot);
  EXPECT_EQ(a.rng_query_draws, b.rng_query_draws);
  EXPECT_EQ(a.rng_fault_draws, b.rng_fault_draws);
}

// Every client that both runs simulated has the same outcome in each.
void ExpectOutcomesMatch(const std::vector<ClientOutcome>& reference,
                         const std::vector<ClientOutcome>& outcomes) {
  for (uint64_t i = 0; i < std::min(outcomes.size(), reference.size()); ++i) {
    ASSERT_EQ(outcomes[i].success, reference[i].success) << i;
    ASSERT_EQ(outcomes[i].probe_wait, reference[i].probe_wait) << i;
    ASSERT_EQ(outcomes[i].data_wait, reference[i].data_wait) << i;
    ASSERT_EQ(outcomes[i].tuning, reference[i].tuning) << i;
    ASSERT_EQ(outcomes[i].switches, reference[i].switches) << i;
  }
}

TEST(PopSimTest, ReportIsInvariantAcrossThreadAndShardCounts) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());

  // A population using every knob at once, on a faulty medium: the hardest
  // configuration to keep scheduling-independent.
  PopSimOptions options;
  options.population.num_clients = 20'000;
  options.population.interest = PopulationSpec::Interest::kZipf;
  options.population.zipf_theta = 1.2;
  options.population.arrival_horizon_cycles = 3;
  options.population.doze_fraction = 0.2;
  options.population.max_doze_cycles = 4;
  options.population.degraded_fraction = 0.1;
  options.seed = 0x5eed;
  options.faults = MustUniform(2, BernoulliSpec(0.05, 0.3));
  options.degraded_faults = MustUniform(2, BurstSpec());

  options.num_threads = 1;
  std::vector<ClientOutcome> baseline_outcomes;
  auto baseline = popsim->Run(options, &baseline_outcomes);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->threads_used, 1);
  EXPECT_GT(baseline->digest, 0u);

  struct Shape {
    int threads;
    int shards;
  };
  for (Shape shape : {Shape{2, 0}, Shape{8, 0}, Shape{8, 13}, Shape{4, 1},
                      Shape{8, 2}}) {
    options.num_threads = shape.threads;
    options.num_shards = shape.shards;
    std::vector<ClientOutcome> outcomes;
    auto report = popsim->Run(options, &outcomes);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ExpectReportsIdentical(*baseline, *report);
    // The workers that actually ran: never more than there are shards.
    EXPECT_EQ(report->threads_used,
              std::min(shape.threads, report->shards_used));
    ExpectOutcomesMatch(baseline_outcomes, outcomes);
  }

  // popsim seeds its clients' generators a block at a time. Shards whose
  // sizes are no multiple of the block width (20,003 clients over 7 shards
  // is 2,857 or 2,858 each), and fleets smaller than one block, cut the
  // blocks elsewhere; a client's outcome depends on its id alone, so it
  // still equals the 20,000-client baseline's.
  struct Fleet {
    uint64_t clients;
    std::vector<Shape> shapes;
  };
  std::vector<Fleet> fleets = {
      {20'003, {Shape{1, 1}, Shape{4, 7}, Shape{1, 7}, Shape{3, 0}}}};
  for (uint64_t n = 1; n <= 9; ++n) {
    fleets.push_back({n, {Shape{1, 1}, Shape{2, static_cast<int>(n)},
                          Shape{3, 2}}});
  }
  for (const Fleet& fleet : fleets) {
    SCOPED_TRACE(testing::Message() << fleet.clients << " clients");
    options.population.num_clients = fleet.clients;
    std::optional<PopReport> first;
    for (Shape shape : fleet.shapes) {
      SCOPED_TRACE(testing::Message() << shape.threads << " threads, "
                                      << shape.shards << " shards");
      options.num_threads = shape.threads;
      options.num_shards = shape.shards;
      std::vector<ClientOutcome> outcomes;
      auto report = popsim->Run(options, &outcomes);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_EQ(outcomes.size(), fleet.clients);
      ExpectOutcomesMatch(baseline_outcomes, outcomes);
      if (first) {
        ExpectReportsIdentical(*first, *report);
      } else {
        first = *report;
      }
    }
  }
}

TEST(PopSimTest, RepeatedRunsAreBitStable) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());

  PopSimOptions options;
  options.population.num_clients = 5000;
  options.faults = MustUniform(2, BernoulliSpec(0.1));
  options.num_threads = 4;
  auto first = popsim->Run(options);
  auto second = popsim->Run(options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectReportsIdentical(*first, *second);

  // A different seed is a different population.
  options.seed ^= 1;
  auto reseeded = popsim->Run(options);
  ASSERT_TRUE(reseeded.ok());
  EXPECT_NE(reseeded->digest, first->digest);
}

TEST(PopSimTest, DegradedFractionListensThroughWorseMedium) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());

  PopSimOptions options;
  options.population.num_clients = 4000;
  options.degraded_faults = MustUniform(2, BernoulliSpec(0.4, 0.5));
  auto clean = popsim->Run(options);
  ASSERT_TRUE(clean.ok());
  // Base medium is lossless and nobody is degraded: no faults at all.
  EXPECT_EQ(clean->buckets_lost + clean->buckets_corrupted, 0u);
  EXPECT_EQ(clean->rng_fault_draws, 0u);
  EXPECT_EQ(clean->num_succeeded, clean->num_clients);

  options.population.degraded_fraction = 0.25;
  auto degraded = popsim->Run(options);
  ASSERT_TRUE(degraded.ok());
  EXPECT_GT(degraded->buckets_lost + degraded->buckets_corrupted, 0u);
  EXPECT_GT(degraded->retries, 0u);
  // Only the degraded subset draws fault values.
  EXPECT_GT(degraded->rng_fault_draws, 0u);
  // The clean subset's outcomes are untouched by the degraded clients'
  // existence (per-client streams are keyed, not sequential).
  EXPECT_LT(degraded->num_succeeded, degraded->num_clients + 1);
}

TEST(PopSimTest, UniformAndZipfInterestsAreValidPopulations) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());

  for (auto interest : {PopulationSpec::Interest::kUniform,
                        PopulationSpec::Interest::kZipf}) {
    PopSimOptions options;
    options.population.num_clients = 2000;
    options.population.interest = interest;
    auto report = popsim->Run(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->num_succeeded, report->num_clients);
    EXPECT_GT(report->mean_data_wait, 0.0);
    EXPECT_GT(report->mean_tuning_time, 0.0);
    EXPECT_GE(report->p99_access_time, report->p50_access_time);
  }
}

TEST(PopSimTest, InvalidOptionsAreRejected) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());

  PopSimOptions options;
  options.population.num_clients = 0;
  EXPECT_FALSE(popsim->Run(options).ok());

  options = PopSimOptions();
  options.num_threads = -1;
  EXPECT_FALSE(popsim->Run(options).ok());

  options = PopSimOptions();
  options.population.doze_fraction = 0.5;  // needs max_doze_cycles >= 1
  EXPECT_FALSE(popsim->Run(options).ok());
}

TEST(PopSimTest, ThreadCountAboveTheShardCapIsRejected) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());

  PopSimOptions options;
  options.population.num_clients = 4;
  options.num_threads = PopulationSimulator::kMaxAutoShards + 1;
  auto rejected = popsim->Run(options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // The cap itself is accepted; four shards still make only four workers.
  options.num_threads = PopulationSimulator::kMaxAutoShards;
  options.num_shards = 4;
  auto accepted = popsim->Run(options);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted->threads_used, 4);
}

// Pinned reports of the configurations the differential tests run (plus the
// all-knobs population of the invariance test). The digest covers every
// per-client outcome; the other fields pin the slot span, the draw counts
// and the recovery tallies, so a change to the access protocol, the stream
// derivation or the counter folding moves at least one of them. The nearest-
// rank percentiles pin the post-join reduce: p50/p95/p99 of access time,
// then of data wait, then of tuning time.
struct PopGolden {
  const char* name;
  uint64_t digest;
  uint64_t slots_processed;
  int64_t last_slot;
  uint64_t rng_query_draws;
  uint64_t rng_fault_draws;
  uint64_t retries;
  uint64_t cycle_restarts;
  std::array<double, 9> percentiles;
};

void ExpectGolden(const PopulationSimulator& popsim,
                  const PopSimOptions& options, const PopGolden& golden) {
  SCOPED_TRACE(golden.name);
  auto report = popsim.Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->digest, golden.digest);
  EXPECT_EQ(report->slots_processed, golden.slots_processed);
  EXPECT_EQ(report->last_slot, golden.last_slot);
  EXPECT_EQ(report->rng_query_draws, golden.rng_query_draws);
  EXPECT_EQ(report->rng_fault_draws, golden.rng_fault_draws);
  EXPECT_EQ(report->retries, golden.retries);
  EXPECT_EQ(report->cycle_restarts, golden.cycle_restarts);
  const std::array<double, 9> percentiles = {
      report->p50_access_time, report->p95_access_time,
      report->p99_access_time, report->p50_data_wait,
      report->p95_data_wait,   report->p99_data_wait,
      report->p50_tuning_time, report->p95_tuning_time,
      report->p99_tuning_time};
  EXPECT_EQ(percentiles, golden.percentiles);
}

TEST(PopSimGoldenTest, ReportsMatchPinnedValues) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan2 = MustPlan(tree, 2);
  BroadcastPlan plan3 = MustPlan(tree, 3);
  BroadcastPlan replicated = MustPlan(tree, 2, /*root_copies=*/2);
  ASSERT_TRUE(replicated.replicated.has_value());
  auto popsim2 = PopulationSimulator::Create(tree, plan2.schedule);
  auto popsim3 = PopulationSimulator::Create(tree, plan3.schedule);
  auto popsim_rep = PopulationSimulator::Create(tree, *replicated.replicated);
  ASSERT_TRUE(popsim2.ok());
  ASSERT_TRUE(popsim3.ok());
  ASSERT_TRUE(popsim_rep.ok());

  PopSimOptions options;
  options.population.num_clients = 1000;
  options.seed = 0x9d5ab1;
  ExpectGolden(*popsim2, options,
               {"lossless", 0x877daef6839bade3ull, 10, 10, 2000, 0, 0, 0,
                {6.3909001167602142, 9.1796556072213882,
                 9.8041739955611149, 4, 5, 5, 4, 5, 5}});

  options = PopSimOptions();
  options.population.num_clients = 1000;
  options.seed = 77;
  options.faults = MustUniform(2, BernoulliSpec(0.35, /*corrupt=*/0.4));
  ExpectGolden(*popsim2, options,
               {"bernoulli", 0x9b37023a1c910736ull, 84, 84, 2000, 9093, 2311,
                53,
                {13.8519017549895, 33.924788395255888,
                 43.662057983644438, 10, 30, 40, 6, 11, 13}});
  options.recovery.max_retries_per_hop = 1;
  options.recovery.max_cycle_restarts = 0;
  options.recovery.max_scan_passes = 1;
  ExpectGolden(*popsim2, options,
               {"bernoulli_tight", 0x2f123a8723c222abull, 40, 40, 2000, 10971,
                1564, 0,
                {12.634838420420955, 24.672450228470566,
                 29.562617536639525, 9, 20, 25, 6, 14, 16}});

  options = PopSimOptions();
  options.population.num_clients = 500;
  options.seed = 0xbadcab1e;
  options.faults = MustUniform(3, BurstSpec());
  ExpectGolden(*popsim3, options,
               {"gilbert_elliott", 0xdbfa06767a69496cull, 53, 53, 1000, 9394,
                674, 5,
                {9.5997826353721134, 22.153909522935706,
                 28.835169753644145, 5, 18, 25, 5, 10, 13}});

  options = PopSimOptions();
  options.population.num_clients = 800;
  options.seed = 4242;
  ExpectGolden(*popsim_rep, options,
               {"replicated", 0xddce171c64927ab4ull, 12, 12, 1600, 0, 0, 0,
                {7.9166395796023448, 10.984051751257258,
                 11.689234393587709, 5, 9, 9, 4, 5, 5}});
  options.faults = MustUniform(2, BernoulliSpec(0.3, 0.5));
  ExpectGolden(*popsim_rep, options,
               {"replicated_bernoulli", 0x32c2a8d4efad8a01ull, 90, 90, 1600,
                6535, 1500, 24,
                {14.564820424925431, 31.296716952219462,
                 44.017603987713542, 10, 27, 39, 6, 10, 13}});

  options = PopSimOptions();
  options.population.num_clients = 20'000;
  options.population.interest = PopulationSpec::Interest::kZipf;
  options.population.zipf_theta = 1.2;
  options.population.arrival_horizon_cycles = 3;
  options.population.doze_fraction = 0.2;
  options.population.max_doze_cycles = 4;
  options.population.degraded_fraction = 0.1;
  options.seed = 0x5eed;
  options.faults = MustUniform(2, BernoulliSpec(0.05, 0.3));
  options.degraded_faults = MustUniform(2, BurstSpec());
  ExpectGolden(*popsim2, options,
               {"degraded_doze", 0x1291867b19d4c2f6ull, 313, 80, 44015,
                122402, 6890, 28,
                {6.6272451640831775, 13.591499117442854,
                 19.836284783218506, 3, 10, 15, 4, 6, 8}});
}

uint64_t BitsOf(double v) { return std::bit_cast<uint64_t>(v); }

// A pinned report of a bursty medium over a replicated program, with a
// ladder tight enough that every rung and some terminal failures occur. It
// pins the fields the goldens above leave out: the means, the success rate
// and the fault tallies. Doubles are compared by bit pattern.
TEST(PopSimGoldenTest, ClientSimulatorReportMatchesPinnedValues) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2, /*root_copies=*/2);
  ASSERT_TRUE(plan.replicated.has_value());
  auto sim = PopulationSimulator::Create(tree, *plan.replicated);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();

  PopSimOptions options;
  options.population.num_clients = 3000;
  options.seed = 0x601d;
  options.faults = MustUniform(2, BurstSpec());
  options.recovery.max_retries_per_hop = 1;
  options.recovery.max_cycle_restarts = 1;
  options.recovery.max_scan_passes = 1;
  auto report = sim->Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const PopReport& r = *report;

  EXPECT_EQ(r.num_clients, 3000u);
  EXPECT_EQ(r.num_succeeded, 2965u);
  EXPECT_EQ(r.buckets_lost, 3641u);
  EXPECT_EQ(r.buckets_corrupted, 1277u);
  EXPECT_EQ(r.retries, 3949u);
  EXPECT_EQ(r.cycle_restarts, 535u);
  EXPECT_EQ(r.sequential_scans, 124u);
  EXPECT_EQ(r.rng_query_draws, 6000u);
  EXPECT_EQ(r.rng_fault_draws, 71880u);
  EXPECT_EQ(r.digest, 0x7be362e6ae3fbef2ull);
  EXPECT_EQ(BitsOf(r.mean_probe_wait), 0x400fe98377f1c581ull);
  EXPECT_EQ(BitsOf(r.mean_data_wait), 0x4022a06bc0cc7463ull);
  EXPECT_EQ(BitsOf(r.mean_access_time), 0x402a9acc9ec8e5c3ull);
  EXPECT_EQ(BitsOf(r.mean_tuning_time), 0x40188b2e5d6baab2ull);
  EXPECT_EQ(BitsOf(r.mean_switches), 0x3ff4605b2cfbc4f1ull);
  EXPECT_EQ(BitsOf(r.listen_fraction), 0x3fdd856214715ea7ull);
  EXPECT_EQ(BitsOf(r.success_rate), 0x3fefa06d3a06d3a0ull);
  EXPECT_EQ(BitsOf(r.p50_access_time), 0x402734e42136b392ull);
  EXPECT_EQ(BitsOf(r.p95_access_time), 0x403bc41810135cc4ull);
  EXPECT_EQ(BitsOf(r.p99_access_time), 0x4042ccfb4f0dcadbull);
}

}  // namespace
}  // namespace bcast
