// Exact-search cost: TopoTreeSearch::FindOptimalDfs, the one exact optimizer
// for every channel count, on Table-1-class inputs (full balanced m-ary
// index trees, uniform random data weights, k = 2/3 channels — the regime
// where the exact search is affordable but not trivial) plus deep skewed
// random families at k = 1, 2 and 3, the largest of which (deep18_k2) is
// the hardest instance the suite affords.
//
// Per instance it reports `repeats` runs. Each run times the unseeded DFS
// and counts the expansions of the unseeded DFS and of the DFS seeded with
// the SortingHeuristic incumbent (exactly the seed FindOptimalAllocation
// installs), plus the unseeded DFS's transposition-memo counters. A first,
// untimed DFS must pass the AllocationVerifier, and every run's unseeded and
// seeded plans must be byte-identical to it; either failure exits 1.
//
// Usage: bench_exact_search [--json[=path]] [--repeats N]
//   --json   additionally writes the machine-readable report (schema in
//            docs/FORMATS.md) to BENCH_exact_search.json or `path`;
//            tools/bench_gate.py gates a fresh report against the
//            committed one.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/heuristics.h"
#include "alloc/topo_search.h"
#include "obs/export.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "verify/verifier.h"
#include "workload/weights.h"

namespace {

using bcast::AllocationResult;
using bcast::IndexTree;
using bcast::TopoTreeSearch;

// One repeat of an instance.
struct RunReport {
  double seconds = 0.0;  // wall time of the unseeded DFS
  // DFS expansion counts, unseeded vs seeded. Deterministic (the memo is
  // cleared per call), which makes them what tools/bench_gate.py gates on.
  uint64_t dfs_expansions_unseeded = 0;
  uint64_t dfs_expansions_seeded = 0;
  // Transposition-memo counters of the unseeded DFS.
  uint64_t store_hits = 0;
  uint64_t store_inserts = 0;
  uint64_t store_evictions = 0;
};

struct InstanceReport {
  std::string name;
  int fanout = 0;
  int depth = 0;
  int num_nodes = 0;
  int channels = 0;
  double adw = 0.0;
  std::vector<RunReport> runs;
};

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

bool Verified(const std::string& name, const IndexTree& tree, int channels,
              const AllocationResult& result) {
  bcast::VerifyReport report = bcast::AllocationVerifier(tree).VerifySlots(
      channels, result.slots, result.average_data_wait);
  if (report.ok()) return true;
  std::fprintf(stderr, "VERIFIER: %s\n%s\n", name.c_str(),
               report.ToString().c_str());
  return false;
}

bool RunInstance(const std::string& name, const IndexTree& tree, int fanout,
                 int depth, int channels, int repeats,
                 std::vector<InstanceReport>* reports) {
  TopoTreeSearch::Options options;
  options.num_channels = channels;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  auto search = TopoTreeSearch::Create(tree, options);
  if (!search.ok()) {
    std::fprintf(stderr, "search: %s\n", search.status().ToString().c_str());
    return false;
  }
  auto reference = search->FindOptimalDfs();
  if (!reference.ok()) {
    std::fprintf(stderr, "dfs: %s\n", reference.status().ToString().c_str());
    return false;
  }
  if (!Verified(name, tree, channels, *reference)) return false;

  // Seeded DFS: the exact incumbent FindOptimalAllocation installs
  // (SortingHeuristic cost, inflated by one relative ulp-guard).
  auto heuristic = bcast::SortingHeuristic(tree, channels);
  if (!heuristic.ok()) {
    std::fprintf(stderr, "heuristic: %s\n",
                 heuristic.status().ToString().c_str());
    return false;
  }
  double seed_v = heuristic->average_data_wait * tree.total_data_weight();
  seed_v *= 1.0 + 1e-9;

  InstanceReport report;
  report.name = name;
  report.fanout = fanout;
  report.depth = depth;
  report.num_nodes = tree.num_nodes();
  report.channels = channels;
  report.adw = reference->average_data_wait;
  // The first DFS above warmed up the search object's arenas and memo table.
  for (int rep = 0; rep < repeats; ++rep) {
    auto begin = std::chrono::steady_clock::now();
    auto unseeded = search->FindOptimalDfs();
    auto end = std::chrono::steady_clock::now();
    if (!unseeded.ok() || unseeded->slots != reference->slots) {
      std::fprintf(stderr, "dfs rerun diverged on %s\n", name.c_str());
      return false;
    }
    auto seeded = search->FindOptimalDfs(seed_v);
    if (!seeded.ok()) {
      std::fprintf(stderr, "seeded dfs: %s\n",
                   seeded.status().ToString().c_str());
      return false;
    }
    if (seeded->slots != reference->slots ||
        seeded->average_data_wait != reference->average_data_wait) {
      std::fprintf(stderr,
                   "SEEDING VIOLATION: %s seeded DFS diverged from the "
                   "unseeded allocation\n",
                   name.c_str());
      return false;
    }
    RunReport run;
    run.seconds = Seconds(begin, end);
    run.dfs_expansions_unseeded = unseeded->stats.nodes_expanded;
    run.dfs_expansions_seeded = seeded->stats.nodes_expanded;
    run.store_hits = unseeded->stats.store_hits;
    run.store_inserts = unseeded->stats.store_inserts;
    run.store_evictions = unseeded->stats.store_evictions;
    report.runs.push_back(run);
  }
  reports->push_back(std::move(report));
  return true;
}

// One row per instance: the counts of the first run (every run carries the
// same) and the best wall time of the runs.
void PrintTable(const std::vector<InstanceReport>& reports) {
  std::printf("%-10s %6s %3s | %12s %12s %9s %10s %10s %10s %9s\n",
              "instance", "nodes", "k", "unseeded", "seeded", "reduction",
              "best ms", "memo-hits", "memo-ins", "memo-evict");
  for (const InstanceReport& report : reports) {
    const RunReport& run = report.runs.front();
    double best = run.seconds;
    for (const RunReport& other : report.runs) {
      best = std::min(best, other.seconds);
    }
    const double reduction =
        run.dfs_expansions_seeded > 0
            ? static_cast<double>(run.dfs_expansions_unseeded) /
                  static_cast<double>(run.dfs_expansions_seeded)
            : 0.0;
    std::printf(
        "%-10s %6d %3d | %12llu %12llu %8.2fx %10.4f %10llu %10llu %9llu\n",
        report.name.c_str(), report.num_nodes, report.channels,
        static_cast<unsigned long long>(run.dfs_expansions_unseeded),
        static_cast<unsigned long long>(run.dfs_expansions_seeded), reduction,
        best * 1e3, static_cast<unsigned long long>(run.store_hits),
        static_cast<unsigned long long>(run.store_inserts),
        static_cast<unsigned long long>(run.store_evictions));
  }
}

bool WriteJson(const std::string& path,
               const std::vector<InstanceReport>& reports) {
  std::string text;
  bcast::obs::JsonWriter json(&text);
  json.BeginObject();
  json.Key("bench");
  json.String("exact_search");
  json.Key("instances");
  json.BeginArray();
  for (const InstanceReport& report : reports) {
    json.BeginObject();
    json.Key("name");
    json.String(report.name);
    json.Key("fanout");
    json.Int(report.fanout);
    json.Key("depth");
    json.Int(report.depth);
    json.Key("num_nodes");
    json.Int(report.num_nodes);
    json.Key("channels");
    json.Int(report.channels);
    json.Key("adw");
    json.Double(report.adw);
    json.Key("runs");
    json.BeginArray();
    for (const RunReport& run : report.runs) {
      json.BeginObject();
      json.Key("seconds");
      json.Double(run.seconds);
      json.Key("dfs_expansions_unseeded");
      json.UInt(run.dfs_expansions_unseeded);
      json.Key("dfs_expansions_seeded");
      json.UInt(run.dfs_expansions_seeded);
      json.Key("store_hits");
      json.UInt(run.store_hits);
      json.Key("store_inserts");
      json.UInt(run.store_inserts);
      json.Key("store_evictions");
      json.UInt(run.store_evictions);
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
  std::string json_path = "BENCH_exact_search.json";
  int repeats = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
      if (repeats < 1) repeats = 1;
    } else {
      std::fprintf(stderr,
                   "usage: bench_exact_search [--json[=path]] [--repeats N]\n");
      return 2;
    }
  }

  // Instance-size grid: depth-3 full balanced trees (1 + m + m^2 nodes).
  // m = 4, k = 2 is the hardest cell; bigger fanouts blow past the exact
  // regime the paper itself stays in (Section 4.1).
  std::vector<InstanceReport> reports;
  const std::pair<int, int> grid[] = {{3, 2}, {3, 3}, {4, 2}, {4, 3}};
  for (const auto& [fanout, channels] : grid) {
    const int depth = 3;
    int leaves = 1;
    for (int level = 1; level < depth; ++level) leaves *= fanout;
    bcast::Rng rng(0xBE7Cu + static_cast<uint64_t>(fanout * 100 + channels));
    std::vector<double> weights =
        bcast::UniformWeights(&rng, leaves, 1.0, 100.0);
    auto tree = bcast::MakeFullBalancedTree(fanout, depth, weights);
    if (!tree.ok()) {
      std::fprintf(stderr, "tree: %s\n", tree.status().ToString().c_str());
      return 1;
    }
    std::string name = "m" + std::to_string(fanout) + "_d" +
                       std::to_string(depth) + "_k" + std::to_string(channels);
    if (!RunInstance(name, *tree, fanout, depth, channels, repeats,
                     &reports)) {
      return 1;
    }
  }

  // Skewed random families (depth 0 = not a balanced tree; fanout = max).
  // rand13 is the deepest search of the small suite (regression-gate
  // ballast); rand11 is the instance family where the SortingHeuristic
  // incumbent is near-optimal and the seeded DFS expands >= 2x fewer nodes;
  // deep18 (max_fanout 2 — near-chain shape, the worst case for the bound)
  // is where the transposition memo does most of its work.
  struct RandomFamily {
    uint64_t seed;
    int num_data;
    int max_fanout;
    const char* prefix;
  };
  const RandomFamily random_families[] = {{0xA110C, 13, 3, "rand13"},
                                          {3, 11, 3, "rand11"},
                                          {2, 18, 2, "deep18"}};
  for (const RandomFamily& family : random_families) {
    for (int channels : {1, 2, 3}) {
      bcast::Rng rng(family.seed);
      bcast::IndexTree tree =
          bcast::MakeRandomTree(&rng, family.num_data, family.max_fanout);
      std::string name =
          std::string(family.prefix) + "_k" + std::to_string(channels);
      if (!RunInstance(name, tree, family.max_fanout, /*depth=*/0, channels,
                       repeats, &reports)) {
        return 1;
      }
    }
  }

  PrintTable(reports);
  if (json) {
    if (!WriteJson(json_path, reports)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
