// popsim_fleet: one program planned in set-up, then a million clients per
// pass — 20 fleets of 50k — read it through a lossy medium on 2 worker
// threads. The metrics registry stays off.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broadcast/program_io.h"
#include "checks.h"
#include "core/planner.h"
#include "inputs.h"
#include "popsim/popsim.h"
#include "tree/alphabetic.h"
#include "verify/verifier.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Everything set-up builds. The simulator refers to the tree, so both live
// behind stable pointers.
struct Fleet {
  std::unique_ptr<bcast::IndexTree> tree;
  std::optional<bcast::BroadcastPlan> plan;
  std::optional<bcast::PopulationSimulator> sim;
  std::vector<bcast::PopSimOptions> fleets;
};

// Builds the program and the fleets; empty on success, else what failed.
std::string SetUp(uint64_t seed, Fleet* fleet) {
  fleet->sim.reset();  // it refers to the tree about to be replaced
  auto tree =
      bcast::BuildGreedyAlphabeticTree(MakeFleetCatalog(), kFleetFanout);
  if (!tree.ok()) return "catalog index: " + tree.status().ToString();
  fleet->tree = std::make_unique<bcast::IndexTree>(*std::move(tree));

  bcast::PlannerOptions options;
  options.num_channels = kFleetChannels;
  options.strategy = bcast::PlanStrategy::kAuto;
  auto plan = bcast::PlanBroadcast(*fleet->tree, options);
  std::optional<bcast::VerifyReport> report;
  std::optional<bcast::Result<std::string>> text;
  std::optional<bcast::Result<bcast::BroadcastProgram>> parsed;
  if (plan.ok()) {
    report.emplace(
        bcast::AllocationVerifier(*fleet->tree).VerifySchedule(plan->schedule));
    text.emplace(bcast::FormatProgram(*fleet->tree, plan->schedule));
    if (text->ok()) parsed.emplace(bcast::ParseProgram(**text));
  }
  std::string failure = CheckPlan(*fleet->tree, plan, report, text, parsed,
                                  /*require_exact=*/false);
  if (!failure.empty()) return "program: " + failure;
  fleet->plan.emplace(*std::move(plan));

  auto sim = bcast::PopulationSimulator::Create(*fleet->tree,
                                                fleet->plan->schedule);
  if (!sim.ok()) return "simulator: " + sim.status().ToString();
  fleet->sim.emplace(*std::move(sim));

  fleet->fleets.clear();
  for (int f = 0; f < kFleetsPerPass; ++f) {
    auto options = MakeFleetOptions(seed, f);
    if (!options.ok()) return "fleet options: " + options.status().ToString();
    fleet->fleets.push_back(*std::move(options));
  }
  return "";
}

}  // namespace

WorkloadResult RunPopsimFleet(const RunConfig& config) {
  WorkloadResult result;
  Measurements m;
  // A pass has only 20 fleets, so every fleet run is a sample: p90 needs
  // 100 of them, five passes.
  m.tail_percentile = 90.0;
  constexpr int kMinPasses = 5;
  constexpr size_t kWarmupFleets = 4;

  Fleet fleet;
  std::string setup_failure;
  auto setup = [&] {
    if (setup_failure.empty()) setup_failure = SetUp(config.seed, &fleet);
  };
  SetupTimer setup_timer;
  for (int i = 0; i < kSetupRepeats; ++i) setup_timer.Time(setup);
  if (!setup_failure.empty()) {
    result.tally.Fail("set-up: " + setup_failure);
    return result;
  }

  SpanRecorder recorder;
  std::optional<std::string> first_digest;
  auto pass = [&](PassKind kind) {
    const bool traced = kind == PassKind::kTraced;
    recorder.set_enabled(traced);
    ScopedSpan pass_span(&recorder, kPassSpan, -1);
    Digest digest;
    double access_sum = 0.0;
    double access_p99_sum = 0.0;
    double tuning_sum = 0.0;
    double succeeded = 0.0;
    const size_t count =
        kind == PassKind::kWarmup ? kWarmupFleets : fleet.fleets.size();
    for (size_t f = 0; f < count; ++f) {
      const int64_t op = static_cast<int64_t>(f);
      const bcast::PopSimOptions& options = fleet.fleets[f];
      std::optional<bcast::Result<bcast::PopReport>> report;
      const uint64_t start = NowNs();
      {
        ScopedSpan op_span(&recorder, kOpSpan, op);
        ScopedSpan span(&recorder, "popsim.run", op);
        report.emplace(fleet.sim->Run(options));
      }
      const uint64_t end = NowNs();
      const int64_t clients =
          static_cast<int64_t>(options.population.num_clients);
      if (!report->ok()) {
        result.tally.RecordMany(clients, clients,
                                "fleet " + std::to_string(f) + ": " +
                                    report->status().ToString());
        continue;
      }
      const bcast::PopReport& pop = **report;
      const int64_t failed = clients - static_cast<int64_t>(pop.num_succeeded);
      result.tally.RecordMany(clients, failed,
                              "fleet " + std::to_string(f) + ": " +
                                  std::to_string(failed) +
                                  " clients did not get their data");
      if (kind == PassKind::kUntraced) {
        m.AddLatency(f, static_cast<double>(end - start) * 1e-6);
      }
      digest.Add(pop.digest);
      const double ok = static_cast<double>(pop.num_succeeded);
      succeeded += ok;
      access_sum += pop.mean_access_time * ok;
      access_p99_sum += pop.p99_access_time;
      tuning_sum += pop.mean_tuning_time * ok;
      if (traced) {
        auto& c = m.layer_counts;
        c["popsim.clients"] += static_cast<double>(pop.num_clients);
        c["popsim.succeeded"] += ok;
        c["popsim.slots_processed"] +=
            static_cast<double>(pop.slots_processed);
        c["popsim.rng_query_draws"] +=
            static_cast<double>(pop.rng_query_draws);
        c["popsim.rng_fault_draws"] +=
            static_cast<double>(pop.rng_fault_draws);
        c["fault.buckets_lost"] += static_cast<double>(pop.buckets_lost);
        c["fault.buckets_corrupted"] +=
            static_cast<double>(pop.buckets_corrupted);
        c["fault.retries"] += static_cast<double>(pop.retries);
        c["fault.cycle_restarts"] += static_cast<double>(pop.cycle_restarts);
        c["fault.sequential_scans"] +=
            static_cast<double>(pop.sequential_scans);
      }
    }
    if (kind == PassKind::kWarmup) return;
    if (!first_digest.has_value()) {
      first_digest = digest.Hex();
      m.wait_slots = succeeded > 0.0 ? access_sum / succeeded : 0.0;
      m.wait_p99_slots =
          access_p99_sum / static_cast<double>(fleet.fleets.size());
      m.tuning_slots = succeeded > 0.0 ? tuning_sum / succeeded : 0.0;
    } else if (*first_digest != digest.Hex()) {
      result.tally.Fail("pass digest " + digest.Hex() + " != " +
                        *first_digest);
    }
  };
  m.passes = RunPasses(config.seconds, kMinPasses, config.trace, pass,
                       [&] { setup_timer.Time(setup); });
  if (!setup_failure.empty()) result.tally.Fail("set-up: " + setup_failure);
  m.setup_s = setup_timer.median_s();
  m.work_per_pass = static_cast<double>(kFleetsPerPass) *
                    static_cast<double>(kClientsPerFleet);

  result.digest = first_digest.value_or("");
  Report(config, m, recorder,
         {{"throughput_per_s", "clients_per_s"},
          {"p50_ms", "fleet_p50_ms"},
          {"tail_ms", "fleet_p90_ms"},
          {"wait_slots", "access_slots_mean"},
          {"wait_p99_slots", "access_slots_p99"},
          {"tuning_slots", "tuning_slots_mean"}},
         &result);
  return result;
}

}  // namespace perfbench
