// serve_adaptive: the closed serving loop, one cycle per operation, on an
// 18-item catalog whose popularity ranking drifts, with the metrics registry
// installed and fed to a telemetry pipeline writing JSONL (what `bcastctl
// simulate --cycles --strategy optimal --telemetry-out` sets up). Each cycle:
// requests from the true weights feed a frequency estimator, the catalog
// index is rebuilt from the estimates, an exact warm-started replan runs on
// one thread, the plan is verified and round-tripped through program text, a
// new population simulator reads the parsed program, and one telemetry tick
// is emitted.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocation.h"
#include "broadcast/program_io.h"
#include "checks.h"
#include "core/planner.h"
#include "inputs.h"
#include "obs/obs.h"
#include "obs/stream.h"
#include "popsim/popsim.h"
#include "tree/alphabetic.h"
#include "util/rng.h"
#include "verify/verifier.h"
#include "workload/frequency.h"
#include "workloads.h"

namespace perfbench {

namespace {

// The counters `bcastctl simulate --cycles --telemetry-out` streams.
const std::vector<std::string> kStreamCounters = {
    "planner.deadline_missed",      "planner.degraded.anytime",
    "planner.degraded.heuristic",   "planner.degraded.stale",
    "planner.backoff_skips",        "sim.oracle_plan_retries",
    "fault.task.injected_failures", "fault.task.injected_stalls"};

// Checks the stream file the last pass wrote: one tick per cycle, and a fin
// record with outcome ok and no drops. Empty when it holds.
std::string CheckTelemetryFile(const std::string& path, int cycles) {
  auto records = bcast::obs::ReadTelemetryFile(path);
  if (!records.ok()) return "telemetry file: " + records.status().ToString();
  int ticks = 0;
  const bcast::obs::TelemetryRecord* fin = nullptr;
  for (const auto& record : *records) {
    if (record.type == bcast::obs::TelemetryRecord::Type::kTick) ++ticks;
    if (record.type == bcast::obs::TelemetryRecord::Type::kFin) fin = &record;
  }
  if (ticks != cycles) {
    return "telemetry file has " + std::to_string(ticks) + " ticks for " +
           std::to_string(cycles) + " cycles";
  }
  if (fin == nullptr) return "telemetry file has no fin record";
  auto outcome = fin->meta.find("outcome");
  if (outcome == fin->meta.end() || outcome->second != "ok" ||
      fin->dropped != 0) {
    return "telemetry fin is not ok with zero drops";
  }
  return "";
}

}  // namespace

WorkloadResult RunServeAdaptive(const RunConfig& config) {
  WorkloadResult result;
  Measurements m;
  // Every cycle repeats once per pass; its latency is the median of its
  // repeats, and p90 over 100 cycles needs no more than one pass.
  m.tail_percentile = 90.0;
  m.repeats = Repeats::kMedian;
  constexpr int kMinPasses = 3;
  const int cycles = kServeCyclesPerPass;
  constexpr int kWarmupCycles = 10;
  const std::string telemetry_path =
      config.out_dir + "/serve_adaptive.telemetry.jsonl";

  bcast::PlannerOptions base;
  base.num_channels = kServeChannels;
  base.strategy = bcast::PlanStrategy::kOptimal;
  base.optimal.num_threads = 1;

  // Set-up: the seeded streams, and the plan on air before cycle 0 —
  // planned, as the adaptive server does, from the estimator's uniform prior.
  ServeScript script;
  bcast::SlotSequence initial_slots;
  std::string setup_failure;
  auto setup = [&] {
    script = MakeServeScript(config.seed);
    const bcast::FrequencyEstimator prior(kServeItems, kServeEstimatorDecay);
    auto tree = bcast::BuildGreedyAlphabeticTree(
        CatalogItems(prior.EstimatedWeights()), kServeFanout);
    if (!tree.ok()) {
      setup_failure = "prior index: " + tree.status().ToString();
      return;
    }
    auto plan = bcast::PlanBroadcast(*tree, base);
    if (!plan.ok()) {
      setup_failure = "prior plan: " + plan.status().ToString();
      return;
    }
    initial_slots = std::move(plan->allocation.slots);
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
    const int cycles_run = kind == PassKind::kWarmup ? kWarmupCycles : cycles;
    recorder.set_enabled(traced);
    ScopedSpan pass_span(&recorder, kPassSpan, -1);
    bcast::obs::Registry registry;
    bcast::obs::ScopedObservability install(&registry, nullptr);
    auto sink = bcast::obs::JsonlFileSink::Open(telemetry_path);
    if (!sink.ok()) {
      result.tally.Fail("telemetry sink: " + sink.status().ToString());
      return;
    }
    bcast::obs::TelemetryOptions stream_options;
    stream_options.registry = &registry;
    stream_options.counters = kStreamCounters;
    stream_options.source = "adaptive_server";
    stream_options.meta["seed"] = std::to_string(config.seed);
    stream_options.meta["cycles"] = std::to_string(cycles_run);
    bcast::obs::TelemetryPipeline pipeline(&*sink, std::move(stream_options));

    bcast::FrequencyEstimator estimator(kServeItems, kServeEstimatorDecay);
    bcast::Rng requests(script.request_seed);
    std::vector<double> weights = script.initial_weights;
    bcast::SlotSequence on_air = initial_slots;  // the previous cycle's plan
    Digest digest;
    double wait_sum = 0.0;
    double wait_p99_sum = 0.0;
    double tuning_sum = 0.0;

    for (int cycle = 0; cycle < cycles_run; ++cycle) {
      const int64_t op = cycle;
      std::optional<bcast::Result<bcast::IndexTree>> tree;
      std::optional<bcast::Result<bcast::BroadcastPlan>> plan;
      std::optional<bcast::VerifyReport> report;
      std::optional<bcast::Result<std::string>> text;
      std::optional<bcast::Result<bcast::BroadcastProgram>> parsed;
      std::optional<bcast::Result<bcast::PopReport>> pop;
      double served_wait = 0.0;
      const uint64_t start = NowNs();
      {
        ScopedSpan op_span(&recorder, kOpSpan, op);
        std::vector<double> estimates;
        {
          ScopedSpan span(&recorder, "workload.estimate", op);
          for (int q = 0; q < kServeRequestsPerCycle; ++q) {
            const size_t item = requests.WeightedIndex(weights);
            estimator.Observe(static_cast<int>(item));
          }
          estimates = estimator.EstimatedWeights();
        }
        {
          ScopedSpan span(&recorder, "tree.build", op);
          tree.emplace(bcast::BuildGreedyAlphabeticTree(
              CatalogItems(estimates), kServeFanout));
        }
        if (tree->ok()) {
          const bcast::IndexTree& index = **tree;
          {
            ScopedSpan span(&recorder, "core.plan", op);
            bcast::PlannerOptions options = base;
            // Warm start as the adaptive server does: the plan on air is a
            // feasible incumbent whenever the rebuilt index kept its shape.
            if (!on_air.empty() &&
                bcast::ValidateSlotSequence(index, kServeChannels, on_air)
                    .ok()) {
              options.optimal.seed_incumbent =
                  bcast::OptimalOptions::SeedIncumbent::kPrevious;
              options.optimal.warm_start_adw =
                  bcast::SlotSequenceDataWait(index, on_air);
            }
            plan.emplace(bcast::PlanBroadcast(index, options));
          }
          if (plan->ok()) {
            {
              ScopedSpan span(&recorder, "verify", op);
              report.emplace(bcast::AllocationVerifier(index).VerifySchedule(
                  (*plan)->schedule));
            }
            {
              ScopedSpan span(&recorder, "broadcast.format", op);
              text.emplace(bcast::FormatProgram(index, (*plan)->schedule));
            }
            if (text->ok()) {
              ScopedSpan span(&recorder, "broadcast.parse", op);
              parsed.emplace(bcast::ParseProgram(**text));
            }
          }
          if (parsed.has_value() && parsed->ok()) {
            const bcast::BroadcastProgram& program = **parsed;
            std::optional<bcast::Result<bcast::PopulationSimulator>> sim;
            {
              ScopedSpan span(&recorder, "popsim.create", op);
              sim.emplace(bcast::PopulationSimulator::Create(
                  program.tree, program.schedule));
            }
            if (sim->ok()) {
              ScopedSpan span(&recorder, "popsim.run", op);
              bcast::PopSimOptions options;
              options.population.num_clients = kServeClientsPerCycle;
              options.seed = MixSeed(script.population_seed, 0,
                                     static_cast<uint64_t>(cycle));
              options.num_threads = 1;
              pop.emplace((*sim)->Run(options));
            }
            served_wait = WaitUnder(program.tree, program.schedule, weights);
          }
        }
        {
          ScopedSpan span(&recorder, "obs.tick", op);
          pipeline.Observe("serve.served_wait", served_wait);
          pipeline.Observe("serve.plan_adw",
                           plan.has_value() && plan->ok()
                               ? (*plan)->allocation.average_data_wait
                               : 0.0);
          pipeline.Tick(static_cast<uint64_t>(cycle));
        }
        {
          ScopedSpan span(&recorder, "workload.estimate", op);
          estimator.EndEpoch();
        }
      }
      const uint64_t end = NowNs();

      std::string failure;
      if (!tree->ok()) {
        failure = "catalog index: " + tree->status().ToString();
      } else {
        failure = CheckPlan(**tree, *plan, report, text, parsed,
                            /*require_exact=*/true);
      }
      if (failure.empty() && !pop.has_value()) {
        failure = "population simulator could not be created";
      } else if (failure.empty() && !pop->ok()) {
        failure = "population: " + pop->status().ToString();
      }
      if (failure.empty() && (**pop).num_succeeded != (**pop).num_clients) {
        failure = "clients did not get their data";
      }
      result.tally.Record(failure.empty(),
                          "cycle " + std::to_string(cycle) + ": " + failure);
      if (failure.empty()) {
        const bcast::BroadcastPlan& p = **plan;
        const bcast::PopReport& r = **pop;
        if (kind == PassKind::kUntraced) {
          m.AddLatency(static_cast<size_t>(op),
                     static_cast<double>(end - start) * 1e-6);
        }
        AddPlanToDigest(p.allocation, &digest);
        digest.Add(r.digest);
        wait_sum += served_wait;
        wait_p99_sum += r.p99_access_time;
        tuning_sum += r.mean_tuning_time;
        on_air = p.allocation.slots;
        if (traced) {
          const bcast::SearchStats& s = p.allocation.stats;
          auto& c = m.layer_counts;
          c["workload.requests"] += kServeRequestsPerCycle;
          c["tree.nodes"] += (**tree).num_nodes();
          c["core.plans"] += 1;
          c["alloc.expansions"] += static_cast<double>(s.nodes_expanded);
          c["alloc.generated"] += static_cast<double>(s.nodes_generated);
          c["alloc.bound_cutoffs"] += static_cast<double>(s.bound_cutoffs);
          c["alloc.pruned"] += static_cast<double>(s.nodes_pruned);
          c["alloc.incumbent_updates"] +=
              static_cast<double>(s.incumbent_updates);
          c["verify.calls"] += 1;
          c["verify.violations"] +=
              static_cast<double>(report->violations.size());
          c["broadcast.program_bytes"] +=
              static_cast<double>((*text)->size());
          c["popsim.clients"] += static_cast<double>(r.num_clients);
          c["popsim.succeeded"] += static_cast<double>(r.num_succeeded);
          c["popsim.slots_processed"] +=
              static_cast<double>(r.slots_processed);
          c["popsim.rng_query_draws"] +=
              static_cast<double>(r.rng_query_draws);
          c["popsim.rng_fault_draws"] +=
              static_cast<double>(r.rng_fault_draws);
          c["fault.buckets_lost"] += static_cast<double>(r.buckets_lost);
          c["fault.buckets_corrupted"] +=
              static_cast<double>(r.buckets_corrupted);
          c["fault.retries"] += static_cast<double>(r.retries);
          c["fault.cycle_restarts"] += static_cast<double>(r.cycle_restarts);
          c["fault.sequential_scans"] +=
              static_cast<double>(r.sequential_scans);
        }
      }
      DriftAfterCycle(cycle, &weights);
    }

    bcast::Status finished = bcast::Status::Ok();
    {
      ScopedSpan span(&recorder, "obs.tick", cycles_run);
      finished = pipeline.Finish("ok");
    }
    const bool stream_ok = finished.ok() &&
                           pipeline.ticks() ==
                               static_cast<uint64_t>(cycles_run) &&
                           pipeline.dropped() == 0;
    result.tally.Record(stream_ok,
                        "telemetry stream: " + finished.ToString() + ", " +
                            std::to_string(pipeline.ticks()) + " ticks, " +
                            std::to_string(pipeline.dropped()) + " dropped");
    if (traced) {
      auto& c = m.layer_counts;
      c["obs.ticks"] += static_cast<double>(pipeline.ticks());
      c["obs.alerts"] += static_cast<double>(pipeline.alerts_emitted());
      c["obs.records_dropped"] += static_cast<double>(pipeline.dropped());
    }
    if (kind == PassKind::kWarmup) return;
    if (!first_digest.has_value()) {
      first_digest = digest.Hex();
      m.wait_slots = wait_sum / cycles;
      m.wait_p99_slots = wait_p99_sum / cycles;
      m.tuning_slots = tuning_sum / cycles;
    } else if (*first_digest != digest.Hex()) {
      result.tally.Fail("pass digest " + digest.Hex() + " != " +
                        *first_digest);
    }
  };
  m.passes = RunPasses(config.seconds, kMinPasses, config.trace, pass,
                       [&] { setup_timer.Time(setup); });
  if (!setup_failure.empty()) result.tally.Fail("set-up: " + setup_failure);
  m.setup_s = setup_timer.median_s();
  m.work_per_pass = cycles;

  const std::string stream_failure =
      CheckTelemetryFile(telemetry_path, cycles);
  result.tally.Record(stream_failure.empty(), stream_failure);

  result.digest = first_digest.value_or("");
  Report(config, m, recorder,
         {{"throughput_per_s", "cycles_per_s"},
          {"p50_ms", "cycle_p50_ms"},
          {"tail_ms", "cycle_p90_ms"},
          {"wait_slots", "served_wait_slots"}},
         &result);
  return result;
}

}  // namespace perfbench
