// The three workloads and the metrics they report.
//
// A run makes one workload's inputs from the seed (set-up, repeated and
// timed), then runs whole passes over those fixed inputs. An untraced run
// times every operation and reports the end-to-end metrics; a traced run
// alternates untraced and traced passes and reports the per-layer metrics,
// normalized per pass, from the spans and from the counts the library
// returns.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the files a run writes (spans, telemetry stream).
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  Tally tally;
  /// Per-workload digest of the outputs of one pass; every pass of a run
  /// must reproduce it, and so must every run with the same seed.
  std::string digest;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// in the order of kEndToEnd / kPerLayer.
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result: the workload's own
  /// names for the end-to-end metrics, sample counts, percentiles.
  std::vector<std::string> notes;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics; every workload reports all of them. What "operation"
/// and "work unit" mean per workload is in README.md.
inline const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"}, {"p50_ms", "ms"},
    {"tail_ms", "ms"},       {"wait_slots", "slots"},
    {"wait_p99_slots", "slots"}, {"tuning_slots", "slots"},
};

/// Per-layer metrics, per pass; a layer a workload does not run reads 0.
inline const std::vector<MetricSpec> kPerLayer = {
    {"core.plan_s", "s"},
    {"core.plans", "count"},
    {"alloc.expansions", "count"},
    {"alloc.expansions_per_s", "1/s"},
    {"alloc.bound_cutoffs", "count"},
    {"alloc.pruned", "count"},
    {"alloc.prune_ratio", "ratio"},
    {"alloc.incumbent_updates", "count"},
    {"exec.store_hits", "count"},
    {"exec.store_inserts", "count"},
    {"exec.store_evictions", "count"},
    {"exec.store_cas_retries", "count"},
    {"exec.store_hit_ratio", "ratio"},
    {"exec.call_floor_ms", "ms"},
    {"verify.s", "s"},
    {"verify.calls", "count"},
    {"verify.violations", "count"},
    {"broadcast.format_s", "s"},
    {"broadcast.parse_s", "s"},
    {"broadcast.program_bytes", "bytes"},
    {"tree.build_s", "s"},
    {"tree.nodes", "count"},
    {"workload.estimate_s", "s"},
    {"workload.requests", "count"},
    {"popsim.create_s", "s"},
    {"popsim.run_s", "s"},
    {"popsim.clients", "count"},
    {"popsim.slots_processed", "count"},
    {"popsim.slots_per_s", "1/s"},
    {"popsim.rng_query_draws", "count"},
    {"popsim.rng_fault_draws", "count"},
    {"popsim.success_ratio", "ratio"},
    {"fault.buckets_lost", "count"},
    {"fault.buckets_corrupted", "count"},
    {"fault.retries", "count"},
    {"fault.cycle_restarts", "count"},
    {"fault.sequential_scans", "count"},
    {"fault.retries_per_client", "ratio"},
    {"obs.tick_s", "s"},
    {"obs.ticks", "count"},
    {"obs.alerts", "count"},
    {"obs.records_dropped", "count"},
    {"bench.uncovered_s", "s"},
    {"bench.untraced_pass_s", "s"},
    {"bench.traced_pass_s", "s"},
    {"bench.trace_overhead_ratio", "ratio"},
};

/// Set-up runs this many times before the first pass (and once after each
/// pass); setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// How an operation's repeats (one per measured pass) become latency
/// samples.
enum class Repeats {
  /// Every repeat is a sample, and throughput is all work over all measured
  /// pass time.
  kPooled,
  /// The median of an operation's repeats is one sample, and throughput is
  /// one pass's work over the sum of those medians, so a slow stretch of the
  /// host that hits a minority of an operation's repeats drops out.
  kMedian,
  /// The mean of an operation's repeats is one sample, and throughput is one
  /// pass's work over the sum of those means. A host whose speed drifts
  /// during the run moves every operation by the same average, and an
  /// operation whose time varies from repeat to repeat is averaged rather
  /// than picked.
  kMean,
};

/// The measurements a workload hands to the shared reporting code.
struct Measurements {
  double setup_s = 0.0;
  /// Untraced run: latencies in milliseconds, by operation of the pass and
  /// then by repeat (one per measured pass).
  std::vector<std::vector<double>> latencies_ms;
  /// How an operation's repeats become samples.
  Repeats repeats = Repeats::kPooled;
  /// The percentile reported as tail_ms.
  double tail_percentile = 99.0;
  /// Work units (requests, clients, cycles) of one pass.
  double work_per_pass = 0.0;
  double wait_slots = 0.0;
  double wait_p99_slots = 0.0;
  double tuning_slots = 0.0;
  PassTimes passes;
  /// Traced run: per-layer counts summed over traced passes (divided by
  /// the traced pass count when reported).
  std::map<std::string, double> layer_counts;
  /// Traced run: metrics reported as they are (ratios, floors).
  std::map<std::string, double> layer_values;

  void AddLatency(size_t op, double ms) {
    if (latencies_ms.size() <= op) latencies_ms.resize(op + 1);
    latencies_ms[op].push_back(ms);
  }
};

/// Fills `result->metrics` (and notes) from `m` and the recorder's spans.
/// `aliases` maps end-to-end names to the workload's own names for them.
void Report(const RunConfig& config, const Measurements& m,
            const SpanRecorder& recorder,
            const std::map<std::string, std::string>& aliases,
            WorkloadResult* result);

/// Span names of the benchmark's own levels: a pass over the inputs and one
/// operation (request, fleet, cycle; the span's op id says which). Every
/// other span wraps a call into a library layer ("core.plan" feeds
/// core.plan_s).
inline constexpr const char* kPassSpan = "bench.pass";
inline constexpr const char* kOpSpan = "bench.op";

WorkloadResult RunPlanExact(const RunConfig& config);
WorkloadResult RunPopsimFleet(const RunConfig& config);
WorkloadResult RunServeAdaptive(const RunConfig& config);

/// Weighted nearest-rank quantile: the smallest value v such that the
/// weights of values <= v reach `q` (0..1) of the total.
double WeightedQuantile(const std::vector<double>& values,
                        const std::vector<double>& weights, double q);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
