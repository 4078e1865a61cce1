// Turns a workload's measurements into the metrics the run prints.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

std::string Format(const char* fmt, double a, double b = 0.0,
                   double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Per-layer busy seconds keyed by metric name: the self time of every layer
// span. The self time of pass and operation spans is benchmark glue,
// returned as `uncovered`.
std::map<std::string, double> LayerSeconds(const std::vector<Span>& spans,
                                           double* uncovered) {
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> seconds;
  *uncovered = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double s = static_cast<double>(self[i]) * 1e-9;
    const std::string name = spans[i].name;
    if (name == kPassSpan || name == kOpSpan) {
      *uncovered += s;
    } else {
      seconds[name == "verify" ? "verify.s" : name + "_s"] += s;
    }
  }
  return seconds;
}

}  // namespace

double WeightedQuantile(const std::vector<double>& values,
                        const std::vector<double>& weights, double q) {
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double seen = 0.0;
  for (size_t i : order) {
    seen += weights[i];
    if (seen >= q * total * (1.0 - 1e-12)) return values[i];
  }
  return order.empty() ? 0.0 : values[order.back()];
}

void Report(const RunConfig& config, const Measurements& m,
            const SpanRecorder& recorder,
            const std::map<std::string, std::string>& aliases,
            WorkloadResult* result) {
  std::vector<std::string>& notes = result->notes;
  notes.push_back(Format("passes = %.0f untraced (%.3f s), %.0f traced",
                         m.passes.untraced_passes, m.passes.untraced_s,
                         m.passes.traced_passes));
  std::string pass_list = "pass seconds =";
  for (double s : m.passes.pass_s) pass_list += Format(" %.3f", s);
  notes.push_back(pass_list);
  std::map<std::string, double> values;
  if (!config.trace) {
    std::vector<double> samples;
    double busy_s = 0.0;
    for (const std::vector<double>& repeats : m.latencies_ms) {
      switch (m.repeats) {
        case Repeats::kPooled:
          samples.insert(samples.end(), repeats.begin(), repeats.end());
          break;
        case Repeats::kMedian:
          samples.push_back(Percentile(repeats, 50.0));
          busy_s += samples.back() * 1e-3;
          break;
        case Repeats::kMean:
          samples.push_back(
              std::accumulate(repeats.begin(), repeats.end(), 0.0) /
              static_cast<double>(std::max<size_t>(repeats.size(), 1)));
          busy_s += samples.back() * 1e-3;
          break;
      }
    }
    const int64_t n = static_cast<int64_t>(samples.size());
    if (SamplesBeyond(n, m.tail_percentile) < 10) {
      result->tally.Fail(Format("p%g needs ten samples beyond it; %.0f taken",
                                m.tail_percentile, static_cast<double>(n)));
    }
    notes.push_back(Format(
        m.repeats == Repeats::kPooled
            ? "latency samples = %.0f, pooled over %.0f passes"
        : m.repeats == Repeats::kMedian
            ? "latency samples = %.0f, each the median of %.0f repeats"
            : "latency samples = %.0f, each the mean of %.0f repeats",
        static_cast<double>(n), m.passes.untraced_passes));
    notes.push_back(
        Format("tail_ms is p%g with %.0f samples beyond it; the highest "
               "percentile the samples support is p%g",
               m.tail_percentile,
               static_cast<double>(SamplesBeyond(n, m.tail_percentile)),
               HighestSupportedPercentile(n)));
    values["setup_s"] = m.setup_s;
    values["peak_rss_mb"] = PeakRssMb();
    values["throughput_per_s"] =
        m.repeats != Repeats::kPooled
            ? Ratio(m.work_per_pass, busy_s)
            : Ratio(m.work_per_pass * m.passes.untraced_passes,
                    m.passes.untraced_s);
    values["p50_ms"] = Percentile(samples, 50.0);
    values["tail_ms"] = Percentile(samples, m.tail_percentile);
    values["wait_slots"] = m.wait_slots;
    values["wait_p99_slots"] = m.wait_p99_slots;
    values["tuning_slots"] = m.tuning_slots;
    for (const MetricSpec& spec : kEndToEnd) {
      result->metrics.push_back({spec.name, values[spec.name], spec.unit});
      auto alias = aliases.find(spec.name);
      if (alias != aliases.end()) {
        notes.push_back(alias->second + " = " +
                        Format("%.17g", values[spec.name]) + " " + spec.unit);
      }
    }
    return;
  }

  const double passes = std::max(1, m.passes.traced_passes);
  double uncovered = 0.0;
  const auto layer_seconds = LayerSeconds(recorder.spans(), &uncovered);
  for (const auto& [name, seconds] : layer_seconds) {
    values[name] = seconds / passes;
  }
  for (const auto& [name, count] : m.layer_counts) {
    values[name] = count / passes;
  }
  for (const auto& [name, value] : m.layer_values) values[name] = value;
  const auto& c = m.layer_counts;
  auto count = [&](const char* name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  values["alloc.expansions_per_s"] =
      Ratio(values["alloc.expansions"], values["core.plan_s"]);
  values["alloc.prune_ratio"] =
      Ratio(count("alloc.pruned"), count("alloc.generated"));
  values["exec.store_hit_ratio"] =
      Ratio(count("exec.store_hits"),
            count("exec.store_hits") + count("exec.store_inserts") +
                count("exec.store_evictions"));
  values["popsim.slots_per_s"] =
      Ratio(values["popsim.slots_processed"], values["popsim.run_s"]);
  values["popsim.success_ratio"] =
      Ratio(count("popsim.succeeded"), count("popsim.clients"));
  values["fault.retries_per_client"] =
      Ratio(count("fault.retries"), count("popsim.clients"));
  values["bench.uncovered_s"] = uncovered / passes;
  const double untraced =
      Ratio(m.passes.untraced_s, std::max(1, m.passes.untraced_passes));
  const double traced = Ratio(m.passes.traced_s, passes);
  values["bench.untraced_pass_s"] = untraced;
  values["bench.traced_pass_s"] = traced;
  values["bench.trace_overhead_ratio"] = Ratio(traced, untraced);
  for (const MetricSpec& spec : kPerLayer) {
    result->metrics.push_back({spec.name, values[spec.name], spec.unit});
  }
  const std::string spans_path =
      config.out_dir + "/" + config.workload + ".spans.jsonl";
  if (recorder.WriteJsonl(spans_path)) {
    notes.push_back("spans written to " + spans_path);
  } else {
    result->tally.Fail("cannot write " + spans_path);
  }
}

}  // namespace perfbench
