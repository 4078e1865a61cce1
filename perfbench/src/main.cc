// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <plan_exact|popsim_fleet|serve_adaptive>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Human-readable lines come first; the last line of standard output is one
// JSON object with keys correct, attempted, failed and metrics. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. The exit code is 0 only when every output checked out.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/export.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <plan_exact|popsim_fleet|"
               "serve_adaptive> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n",
               message);
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &number)) return Usage("bad --seed");
      config.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number < 1 || number > 600) {
        return Usage("--seconds must be a whole number in 1..600");
      }
      config.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      config.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::WorkloadResult result;
  if (config.workload == "plan_exact") {
    result = perfbench::RunPlanExact(config);
  } else if (config.workload == "popsim_fleet") {
    result = perfbench::RunPopsimFleet(config);
  } else if (config.workload == "serve_adaptive") {
    result = perfbench::RunServeAdaptive(config);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  const bool correct = result.tally.failed() == 0 && !result.digest.empty();
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("# digest %s\n", result.digest.c_str());
  std::printf("# failed_ratio = %.17g (%lld failed of %lld attempted)\n",
              result.tally.failed_ratio(),
              static_cast<long long>(result.tally.failed()),
              static_cast<long long>(result.tally.attempted()));
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& message : result.tally.messages()) {
    std::printf("# FAILED %s\n", message.c_str());
  }
  for (const perfbench::Metric& metric : result.metrics) {
    std::printf("%-28s %.17g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::string json;
  bcast::obs::JsonWriter writer(&json,
                                bcast::obs::JsonWriter::Layout::kCompact);
  writer.BeginObject();
  writer.Key("correct");
  writer.Bool(correct);
  writer.Key("attempted");
  writer.Int(std::max<int64_t>(1, result.tally.attempted()));
  writer.Key("failed");
  writer.Int(result.tally.failed());
  writer.Key("metrics");
  writer.BeginObject();
  for (const perfbench::Metric& metric : result.metrics) {
    writer.Key(metric.name);
    writer.BeginObject();
    writer.Key("value");
    writer.Double(metric.value);
    writer.Key("unit");
    writer.String(metric.unit);
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
