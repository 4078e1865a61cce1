// Exact-search cost: TopoTreeSearch::FindOptimalDfs, the one exact optimizer
// for k >= 2 channels, on Table-1-class inputs (full balanced m-ary index
// trees, uniform random data weights, k = 2/3 channels — the regime where
// the exact search is affordable but not trivial) plus deep skewed random
// families, the largest of which (deep18_k2) is the hardest instance the
// suite affords.
//
// Per instance it reports the deterministic expansion counts of the
// unseeded DFS and of the DFS seeded with the SortingHeuristic incumbent
// (exactly the seed FindOptimalAllocation installs), the best-of-repeats
// wall time of the unseeded DFS, and its transposition-memo counters. Every
// plan passes the AllocationVerifier, and the seeded plan must be
// byte-identical to the unseeded one; either failure exits 1.
//
// Usage: bench_exact_search [--json[=path]] [--repeats N]
//   --json   additionally writes the machine-readable report (schema in
//            docs/FORMATS.md) to BENCH_exact_search.json or `path`.

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

struct InstanceReport {
  std::string name;
  int fanout = 0;
  int depth = 0;
  int num_nodes = 0;
  int channels = 0;
  double adw = 0.0;
  // DFS expansion counts, unseeded vs seeded. Deterministic, which makes
  // them the numbers tools/check_search_regression.py gates on.
  uint64_t dfs_expansions_unseeded = 0;
  uint64_t dfs_expansions_seeded = 0;
  double seeding_reduction = 0.0;  // unseeded / seeded
  // Best-of-repeats wall time of the unseeded DFS.
  double seconds = 0.0;
  // Transposition-memo counters of the unseeded DFS.
  uint64_t store_hits = 0;
  uint64_t store_inserts = 0;
  uint64_t store_evictions = 0;
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
  auto seeded = search->FindOptimalDfs(seed_v);
  if (!seeded.ok()) {
    std::fprintf(stderr, "seeded dfs: %s\n",
                 seeded.status().ToString().c_str());
    return false;
  }
  if (seeded->slots != reference->slots ||
      seeded->average_data_wait != reference->average_data_wait) {
    std::fprintf(stderr,
                 "SEEDING VIOLATION: %s seeded DFS diverged from the unseeded "
                 "allocation\n",
                 name.c_str());
    return false;
  }
  if (!Verified(name, tree, channels, *seeded)) return false;

  InstanceReport report;
  report.name = name;
  report.fanout = fanout;
  report.depth = depth;
  report.num_nodes = tree.num_nodes();
  report.channels = channels;
  report.adw = reference->average_data_wait;
  report.dfs_expansions_unseeded = reference->stats.nodes_expanded;
  report.dfs_expansions_seeded = seeded->stats.nodes_expanded;
  report.seeding_reduction =
      seeded->stats.nodes_expanded > 0
          ? static_cast<double>(reference->stats.nodes_expanded) /
                static_cast<double>(seeded->stats.nodes_expanded)
          : 0.0;
  report.store_hits = reference->stats.store_hits;
  report.store_inserts = reference->stats.store_inserts;
  report.store_evictions = reference->stats.store_evictions;

  // The unseeded DFS again, best of `repeats` (the runs above warmed up the
  // search object's arenas and memo table).
  report.seconds = -1.0;
  for (int rep = 0; rep < repeats; ++rep) {
    auto begin = std::chrono::steady_clock::now();
    auto timed = search->FindOptimalDfs();
    auto end = std::chrono::steady_clock::now();
    if (!timed.ok() || timed->slots != reference->slots) {
      std::fprintf(stderr, "dfs rerun diverged on %s\n", name.c_str());
      return false;
    }
    const double seconds = Seconds(begin, end);
    if (report.seconds < 0.0 || seconds < report.seconds) {
      report.seconds = seconds;
    }
  }
  reports->push_back(std::move(report));
  return true;
}

void PrintTable(const std::vector<InstanceReport>& reports) {
  std::printf("%-10s %6s %3s | %12s %12s %9s %10s %10s %10s %9s\n",
              "instance", "nodes", "k", "unseeded", "seeded", "reduction",
              "ms", "memo-hits", "memo-ins", "memo-evict");
  for (const InstanceReport& report : reports) {
    std::printf(
        "%-10s %6d %3d | %12llu %12llu %8.2fx %10.4f %10llu %10llu %9llu\n",
        report.name.c_str(), report.num_nodes, report.channels,
        static_cast<unsigned long long>(report.dfs_expansions_unseeded),
        static_cast<unsigned long long>(report.dfs_expansions_seeded),
        report.seeding_reduction, report.seconds * 1e3,
        static_cast<unsigned long long>(report.store_hits),
        static_cast<unsigned long long>(report.store_inserts),
        static_cast<unsigned long long>(report.store_evictions));
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
    json.Key("dfs_expansions_unseeded");
    json.UInt(report.dfs_expansions_unseeded);
    json.Key("dfs_expansions_seeded");
    json.UInt(report.dfs_expansions_seeded);
    json.Key("seeding_reduction");
    json.Double(report.seeding_reduction);
    json.Key("ms");
    json.Double(report.seconds * 1e3);
    json.Key("store_hits");
    json.UInt(report.store_hits);
    json.Key("store_inserts");
    json.UInt(report.store_inserts);
    json.Key("store_evictions");
    json.UInt(report.store_evictions);
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
    for (int channels : {2, 3}) {
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
