// Population-simulation benchmark: drives src/popsim/ at fleet scale and
// writes the committed BENCH_population_sim.json that CI's population-sim
// job gates with tools/bench_gate.py regression.
//
// Three instances cover the engine's regimes:
//   * zipf_bernoulli_1m — the headline: one million clients, Zipf interests,
//     1% Bernoulli loss with corruption, full recovery ladder. Completing
//     this cell with fault injection on is the scale acceptance bar.
//   * burst_degraded_100k — Gilbert–Elliott bursts plus a degraded client
//     fraction on a worse medium: the draw-heavy fault-stream path.
//   * doze_uniform_100k — multi-cycle arrival horizon with dozing clients on
//     a lossless medium: long, sparse slot spans per shard.
//
// Every instance runs a {1, 2, 8}-thread grid. The outcome digest must be
// identical across the grid (per-client streams are keyed by client id, so
// scheduling cannot leak into results) — a divergence aborts the benchmark
// with a nonzero exit. Digests are also committed in the JSON: they are
// machine-independent, so the CI gate can detect semantic drift without
// rerunning a reference simulator.
//
// Each cell is timed as the best of kTimedRuns identical runs, with or
// without --telemetry, so both arms of the overhead gate use the same rule.
// clients/sec and slots/sec are throughput (higher is better); peak_rss_mb
// is the process-wide VmHWM high-water mark, recorded after each cell (it is
// monotone over the process lifetime — the headline instance runs first so
// its cells dominate the reading).
//
// --telemetry[=path] wires a per-cell metrics registry + JSONL telemetry
// pipeline into every Run (mirroring `bcastctl popsim --telemetry-out`), so
// CI can diff a --telemetry run against a plain run with
// tools/bench_gate.py overhead. The digest cross-check doubles as the
// telemetry determinism gate: outcomes must be byte-identical with the
// stream on.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/planner.h"
#include "fault/fault_model.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/stream.h"
#include "popsim/popsim.h"
#include "tree/builders.h"
#include "workload/weights.h"

namespace {

using bcast::BroadcastSchedule;
using bcast::ChannelLossSpec;
using bcast::FaultModel;
using bcast::IndexTree;
using bcast::LossModelKind;
using bcast::PopReport;
using bcast::PopSimOptions;
using bcast::PopulationSimulator;
using bcast::PopulationSpec;

constexpr int kTimedRuns = 3;

struct RunCell {
  int threads = 0;
  int shards = 0;
  double seconds = 0.0;
  double clients_per_sec = 0.0;
  double slots_per_sec = 0.0;
  double peak_rss_mb = 0.0;
  std::string digest;
  uint64_t succeeded = 0;
  uint64_t slots_processed = 0;
};

struct InstanceReport {
  std::string name;
  uint64_t clients = 0;
  int channels = 0;
  uint64_t seed = 0;
  std::string loss;
  double success_rate = 0.0;
  double mean_access_time = 0.0;
  double p99_data_wait = 0.0;
  std::vector<RunCell> runs;
};

// VmHWM from /proc/self/status, in MiB (0.0 when unavailable, e.g. non-Linux).
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

std::string DigestHex(uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

FaultModel MustUniform(int channels, const ChannelLossSpec& spec) {
  auto model = FaultModel::CreateUniform(channels, spec);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(model).value();
}

// A 4-ary, 4-level tree (64 data leaves, Zipf(0.8) weights) scheduled by the
// sorting heuristic on 3 channels — big enough that clients walk real
// pointer chains, small enough to plan instantly.
struct Program {
  IndexTree tree;
  BroadcastSchedule schedule{1, 1};
};

Program MakeBenchProgram(int channels) {
  auto tree = bcast::MakeFullBalancedTree(4, 4, bcast::ZipfWeights(64, 0.8));
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    std::exit(1);
  }
  bcast::PlannerOptions plan_options;
  plan_options.num_channels = channels;
  plan_options.strategy = bcast::PlanStrategy::kSorting;
  auto plan = bcast::PlanBroadcast(*tree, plan_options);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    std::exit(1);
  }
  return Program{*std::move(tree), std::move(plan->schedule)};
}

bool RunInstance(const PopulationSimulator& sim, const std::string& name,
                 const PopSimOptions& base_options, uint64_t clients,
                 int channels, const std::string& loss,
                 const std::vector<int>& thread_grid,
                 const char* telemetry_path,
                 std::vector<InstanceReport>* reports) {
  InstanceReport report;
  report.name = name;
  report.clients = clients;
  report.channels = channels;
  report.seed = base_options.seed;
  report.loss = loss;

  std::string reference_digest;
  for (int threads : thread_grid) {
    PopSimOptions options = base_options;
    options.population.num_clients = clients;
    options.num_threads = threads;
    // A 100k-client cell lasts only tens of milliseconds, so one timing
    // swings by several percent with the host; the cell's time is the best
    // of kTimedRuns identical runs.
    double seconds = 0.0;
    std::optional<bcast::Result<PopReport>> result;
    for (int run = 0; run < kTimedRuns; ++run) {
      // --telemetry mode: fresh registry + pipeline per run so every run
      // measures the full instrumentation cost from a cold stream. Setup is
      // outside the timed region; the per-shard ticks inside Run are not.
      std::optional<bcast::obs::Registry> registry;
      std::optional<bcast::obs::ScopedObservability> install;
      std::optional<bcast::obs::JsonlFileSink> sink;
      std::optional<bcast::obs::TelemetryPipeline> pipeline;
      if (telemetry_path != nullptr) {
        registry.emplace();
        install.emplace(&*registry, nullptr);
        auto opened = bcast::obs::JsonlFileSink::Open(telemetry_path);
        if (!opened.ok()) {
          std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
          return false;
        }
        sink.emplace(std::move(opened).value());
        bcast::obs::TelemetryOptions telemetry;
        telemetry.registry = &*registry;
        telemetry.histograms = {"popsim.data_wait_slots",
                                "popsim.tuning_slots"};
        telemetry.source = "popsim";
        telemetry.meta = {{"bench", name}};
        pipeline.emplace(&*sink, std::move(telemetry));
        options.telemetry = &*pipeline;
      }
      const auto start = std::chrono::steady_clock::now();
      result.emplace(sim.Run(options));
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      if (!result->ok()) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(),
                     result->status().ToString().c_str());
        return false;
      }
      if (pipeline.has_value()) {
        bcast::Status status = pipeline->Finish("ok");
        if (!status.ok()) {
          std::fprintf(stderr, "%s: telemetry: %s\n", name.c_str(),
                       status.ToString().c_str());
          return false;
        }
      }
      seconds = run == 0 ? elapsed : std::min(seconds, elapsed);
    }
    const PopReport& pop = **result;
    RunCell cell;
    cell.threads = threads;
    cell.shards = pop.shards_used;
    cell.seconds = seconds;
    cell.clients_per_sec =
        seconds > 0.0 ? static_cast<double>(clients) / seconds : 0.0;
    cell.slots_per_sec =
        seconds > 0.0 ? static_cast<double>(pop.slots_processed) / seconds
                      : 0.0;
    cell.peak_rss_mb = PeakRssMb();
    cell.digest = DigestHex(pop.digest);
    cell.succeeded = pop.num_succeeded;
    cell.slots_processed = pop.slots_processed;
    if (reference_digest.empty()) {
      reference_digest = cell.digest;
      report.success_rate = pop.success_rate;
      report.mean_access_time = pop.mean_access_time;
      report.p99_data_wait = pop.p99_data_wait;
    } else if (cell.digest != reference_digest) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s threads=%d digest %s != %s\n",
                   name.c_str(), threads, cell.digest.c_str(),
                   reference_digest.c_str());
      return false;
    }
    report.runs.push_back(cell);
  }
  reports->push_back(std::move(report));
  return true;
}

void PrintTable(const std::vector<InstanceReport>& reports) {
  std::printf("%-22s %9s | %7s %6s %9s %12s %12s %9s  %s\n", "instance",
              "clients", "threads", "shards", "time(s)", "clients/s",
              "slots/s", "rss(MB)", "digest");
  for (const InstanceReport& report : reports) {
    for (const RunCell& cell : report.runs) {
      std::printf("%-22s %9llu | %7d %6d %9.3f %12.0f %12.0f %9.1f  %s\n",
                  report.name.c_str(),
                  static_cast<unsigned long long>(report.clients),
                  cell.threads, cell.shards, cell.seconds,
                  cell.clients_per_sec, cell.slots_per_sec, cell.peak_rss_mb,
                  cell.digest.c_str());
    }
  }
}

bool WriteJson(const std::string& path,
               const std::vector<InstanceReport>& reports) {
  std::string text;
  bcast::obs::JsonWriter json(&text);
  json.BeginObject();
  json.Key("bench");
  json.String("population_sim");
  json.Key("instances");
  json.BeginArray();
  for (const InstanceReport& report : reports) {
    json.BeginObject();
    json.Key("name");
    json.String(report.name);
    json.Key("clients");
    json.UInt(report.clients);
    json.Key("channels");
    json.Int(report.channels);
    json.Key("seed");
    json.UInt(report.seed);
    json.Key("loss");
    json.String(report.loss);
    json.Key("success_rate");
    json.Double(report.success_rate);
    json.Key("mean_access_time");
    json.Double(report.mean_access_time);
    json.Key("p99_data_wait");
    json.Double(report.p99_data_wait);
    json.Key("runs");
    json.BeginArray();
    for (const RunCell& cell : report.runs) {
      json.BeginObject();
      json.Key("threads");
      json.Int(cell.threads);
      json.Key("shards");
      json.Int(cell.shards);
      json.Key("seconds");
      json.Double(cell.seconds);
      json.Key("clients_per_sec");
      json.Double(cell.clients_per_sec);
      json.Key("slots_per_sec");
      json.Double(cell.slots_per_sec);
      json.Key("peak_rss_mb");
      json.Double(cell.peak_rss_mb);
      json.Key("digest");
      json.String(cell.digest);
      json.Key("succeeded");
      json.UInt(cell.succeeded);
      json.Key("slots_processed");
      json.UInt(cell.slots_processed);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  text += '\n';
  bcast::Status status = bcast::obs::WriteTextFile(path, text);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path = "BENCH_population_sim.json";
  bool telemetry = false;
  std::string telemetry_path = "BENCH_population_sim_telemetry.jsonl";
  uint64_t headline_clients = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      telemetry = true;
    } else if (std::strncmp(argv[i], "--telemetry=", 12) == 0) {
      telemetry = true;
      telemetry_path = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      headline_clients = std::strtoull(argv[++i], nullptr, 10);
      if (headline_clients < 1) headline_clients = 1;
    } else {
      std::fprintf(stderr,
                   "usage: bench_population_sim [--json[=path]] "
                   "[--telemetry[=path]] [--clients N]\n");
      return 2;
    }
  }
  const char* telemetry_target = telemetry ? telemetry_path.c_str() : nullptr;

  const int channels = 3;
  Program program = MakeBenchProgram(channels);
  auto sim = PopulationSimulator::Create(program.tree, program.schedule);
  if (!sim.ok()) {
    std::fprintf(stderr, "%s\n", sim.status().ToString().c_str());
    return 1;
  }
  const std::vector<int> thread_grid = {1, 2, 8};
  std::vector<InstanceReport> reports;

  // Headline: 1M clients, Zipf interests, 1% Bernoulli loss + corruption.
  {
    ChannelLossSpec spec;
    spec.kind = LossModelKind::kBernoulli;
    spec.loss_prob = 0.01;
    spec.corrupt_fraction = 0.25;
    PopSimOptions options;
    options.population.interest = PopulationSpec::Interest::kZipf;
    options.population.zipf_theta = 0.8;
    options.seed = 0xBEACA57;
    options.faults = MustUniform(channels, spec);
    if (!RunInstance(*sim, "zipf_bernoulli_1m", options, headline_clients,
                     channels, "bernoulli-1%", thread_grid, telemetry_target,
                     &reports)) {
      return 1;
    }
  }

  // Bursty medium + degraded fraction: the draw-heavy fault-stream path.
  {
    ChannelLossSpec burst;
    burst.kind = LossModelKind::kGilbertElliott;
    burst.p_good_to_bad = 0.05;
    burst.p_bad_to_good = 0.4;
    burst.loss_good = 0.005;
    burst.loss_bad = 0.8;
    burst.corrupt_fraction = 0.2;
    ChannelLossSpec degraded = burst;
    degraded.loss_bad = 1.0;
    degraded.p_bad_to_good = 0.2;
    PopSimOptions options;
    options.population.degraded_fraction = 0.2;
    options.seed = 0xB0257;
    options.faults = MustUniform(channels, burst);
    options.degraded_faults = MustUniform(channels, degraded);
    if (!RunInstance(*sim, "burst_degraded_100k", options, 100'000, channels,
                     "gilbert-elliott", thread_grid, telemetry_target,
                     &reports)) {
      return 1;
    }
  }

  // Sparse arrivals: spread over 8 cycles, a third of the fleet dozing up
  // to 10 extra cycles, lossless medium.
  {
    PopSimOptions options;
    options.population.interest = PopulationSpec::Interest::kUniform;
    options.population.arrival_horizon_cycles = 8;
    options.population.doze_fraction = 0.33;
    options.population.max_doze_cycles = 10;
    options.seed = 0xD02E;
    if (!RunInstance(*sim, "doze_uniform_100k", options, 100'000, channels,
                     "none", thread_grid, telemetry_target, &reports)) {
      return 1;
    }
  }

  PrintTable(reports);
  if (json) {
    if (!WriteJson(json_path, reports)) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
