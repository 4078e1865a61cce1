// Parallel search scaling: the work-stealing branch-and-bound of
// src/exec/parallel_search.h against the single-threaded engine, on a
// threads x instance-size grid of Table-1-class inputs (full balanced m-ary
// index trees, uniform random data weights, k = 2/3 channels — the regime
// where the exact search is affordable but not trivial) plus deep skewed
// random families, the largest of which (deep18) drives >= 10^6 expansions
// so the 8-thread cells measure real contention on the concurrent state
// store rather than task spawn overhead.
//
// Each instance also times the sequential TopoTreeSearch::FindOptimalDfs
// (seq_ms), so every engine cell reports its speedup over the real
// sequential baseline (speedup_vs_seq) beside its speedup over its own
// one-thread inline mode (speedup_vs_1).
//
// For every cell the benchmark verifies the parallel allocation is
// byte-identical to TopoTreeSearch::FindOptimalDfs before timing counts;
// a mismatch is a hard failure (exit 1), because the determinism contract is
// the whole point of the engine.
//
// Usage: bench_parallel_search [--json[=path]] [--repeats N]
//                              [--threads LIST] [--batch-factor N]
//   --json          additionally writes the machine-readable report (schema
//                   in docs/FORMATS.md) to BENCH_parallel_search.json or
//                   `path`.
//   --threads LIST  comma-separated thread cells (default 1,2,4,8). 1 is
//                   always included — it is the speedup_vs_1 baseline.
//   --batch-factor  override ParallelSearchOptions::batch_factor for every
//                   cell (tuning sweeps); the value used is reported in the
//                   JSON top level either way.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "alloc/heuristics.h"
#include "alloc/topo_parallel.h"
#include "alloc/topo_search.h"
#include "obs/export.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "workload/weights.h"

namespace {

using bcast::AllocationResult;
using bcast::IndexTree;
using bcast::TopoTreeSearch;

struct RunCell {
  int threads = 0;
  double seconds = 0.0;
  uint64_t nodes_expanded = 0;
  double expansions_per_sec = 0.0;
  double speedup_vs_1 = 0.0;
  double speedup_vs_seq = 0.0;  // seq_seconds / seconds
  bool matches_single_threaded = false;
  // Concurrent state-store accounting of the best-of-repeats run (see
  // exec/state_store.h for the counter semantics).
  uint64_t store_hits = 0;
  uint64_t store_inserts = 0;
  uint64_t store_dominated = 0;
  uint64_t store_evictions = 0;
  uint64_t store_cas_retries = 0;
};

struct InstanceReport {
  std::string name;
  int fanout = 0;
  int depth = 0;
  int num_nodes = 0;
  int channels = 0;
  double adw = 0.0;
  // Sequential DFS expansion counts, unseeded vs seeded with the
  // SortingHeuristic incumbent (exactly the seed FindOptimalAllocation uses).
  // These are deterministic and thread-count-invariant, which makes them the
  // numbers tools/check_search_regression.py gates on.
  uint64_t dfs_expansions_unseeded = 0;
  uint64_t dfs_expansions_seeded = 0;
  double seeding_reduction = 0.0;  // unseeded / seeded
  // Best-of-repeats wall time of the unseeded sequential DFS.
  double seq_seconds = 0.0;
  std::vector<RunCell> runs;
};

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

bool RunInstance(const std::string& name, const IndexTree& tree, int fanout,
                 int depth, int channels, int repeats,
                 const std::vector<int>& thread_grid,
                 const bcast::ParallelSearchOptions& tuning,
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

  // Seeded sequential DFS: the exact incumbent FindOptimalAllocation installs
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

  // Sequential baseline: the unseeded DFS, timed like the engine cells
  // (best of `repeats`; the reference run above warmed it up).
  double seq_seconds = -1.0;
  for (int rep = 0; rep < repeats; ++rep) {
    auto begin = std::chrono::steady_clock::now();
    auto timed = search->FindOptimalDfs();
    auto end = std::chrono::steady_clock::now();
    if (!timed.ok() || timed->slots != reference->slots) {
      std::fprintf(stderr, "sequential dfs rerun diverged on %s\n",
                   name.c_str());
      return false;
    }
    const double seconds = Seconds(begin, end);
    if (seq_seconds < 0.0 || seconds < seq_seconds) seq_seconds = seconds;
  }

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
  report.seq_seconds = seq_seconds;

  double baseline_seconds = 0.0;
  for (int threads : thread_grid) {
    RunCell cell;
    cell.threads = threads;
    cell.seconds = -1.0;
    cell.matches_single_threaded = true;
    for (int rep = 0; rep < repeats; ++rep) {
      auto begin = std::chrono::steady_clock::now();
      auto parallel = bcast::FindOptimalTopoParallel(
          *search, threads, std::numeric_limits<double>::infinity(),
          /*budget=*/nullptr, &tuning);
      auto end = std::chrono::steady_clock::now();
      if (!parallel.ok()) {
        std::fprintf(stderr, "parallel(threads=%d): %s\n", threads,
                     parallel.status().ToString().c_str());
        return false;
      }
      if (parallel->slots != reference->slots ||
          parallel->average_data_wait != reference->average_data_wait) {
        cell.matches_single_threaded = false;
      }
      double seconds = Seconds(begin, end);
      if (cell.seconds < 0.0 || seconds < cell.seconds) {
        cell.seconds = seconds;  // best-of-repeats
        cell.nodes_expanded = parallel->stats.nodes_expanded;
        cell.store_hits = parallel->stats.store_hits;
        cell.store_inserts = parallel->stats.store_inserts;
        cell.store_dominated = parallel->stats.store_dominated;
        cell.store_evictions = parallel->stats.store_evictions;
        cell.store_cas_retries = parallel->stats.store_cas_retries;
      }
    }
    cell.expansions_per_sec =
        cell.seconds > 0.0 ? static_cast<double>(cell.nodes_expanded) / cell.seconds
                           : 0.0;
    if (threads == 1) baseline_seconds = cell.seconds;
    cell.speedup_vs_1 =
        cell.seconds > 0.0 && baseline_seconds > 0.0
            ? baseline_seconds / cell.seconds
            : 0.0;
    cell.speedup_vs_seq =
        cell.seconds > 0.0 ? seq_seconds / cell.seconds : 0.0;
    if (!cell.matches_single_threaded) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s threads=%d diverged from the "
                   "single-threaded allocation\n",
                   report.name.c_str(), threads);
      return false;
    }
    report.runs.push_back(cell);
  }
  reports->push_back(std::move(report));
  return true;
}

void PrintTable(const std::vector<InstanceReport>& reports) {
  std::printf("%-10s %6s %3s | %7s %9s %12s %14s %8s %8s %10s %8s\n",
              "instance", "nodes", "k", "threads", "time(s)", "expansions",
              "expansions/s", "speedup", "vs-seq", "store-ins", "cas-try");
  for (const InstanceReport& report : reports) {
    for (const RunCell& cell : report.runs) {
      std::printf(
          "%-10s %6d %3d | %7d %9.4f %12llu %14.0f %8.2f %8.2f %10llu "
          "%8llu\n",
          report.name.c_str(), report.num_nodes, report.channels, cell.threads,
          cell.seconds, static_cast<unsigned long long>(cell.nodes_expanded),
          cell.expansions_per_sec, cell.speedup_vs_1, cell.speedup_vs_seq,
          static_cast<unsigned long long>(cell.store_inserts),
          static_cast<unsigned long long>(cell.store_cas_retries));
    }
  }
  std::printf("\n%-10s | %18s %16s %10s %10s\n", "instance", "dfs unseeded",
              "dfs seeded", "reduction", "seq ms");
  for (const InstanceReport& report : reports) {
    std::printf("%-10s | %18llu %16llu %9.2fx %10.4f\n", report.name.c_str(),
                static_cast<unsigned long long>(report.dfs_expansions_unseeded),
                static_cast<unsigned long long>(report.dfs_expansions_seeded),
                report.seeding_reduction, report.seq_seconds * 1e3);
  }
}

bool WriteJson(const std::string& path,
               const std::vector<InstanceReport>& reports, int batch_factor) {
  std::string text;
  bcast::obs::JsonWriter json(&text);
  json.BeginObject();
  json.Key("bench");
  json.String("parallel_search");
  // The sequential-cutoff default the grid was measured under — below this
  // many unplaced elements the engine runs inline instead of spawning tasks.
  json.Key("min_parallel_subtree");
  json.UInt(bcast::ParallelSearchOptions{}.min_parallel_subtree);
  // Sibling-batching granularity the grid was measured under.
  json.Key("batch_factor");
  json.Int(batch_factor);
  // Hardware threads of the measuring host. The scaling gate
  // (tools/check_search_regression.py) only enforces speedup_vs_1 cells the
  // host could actually run in parallel.
  json.Key("host_hardware_concurrency");
  json.UInt(std::thread::hardware_concurrency());
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
    json.Key("seq_ms");
    json.Double(report.seq_seconds * 1e3);
    json.Key("runs");
    json.BeginArray();
    for (const RunCell& cell : report.runs) {
      json.BeginObject();
      json.Key("threads");
      json.Int(cell.threads);
      json.Key("seconds");
      json.Double(cell.seconds);
      json.Key("nodes_expanded");
      json.UInt(cell.nodes_expanded);
      json.Key("expansions_per_sec");
      json.Double(cell.expansions_per_sec);
      json.Key("speedup_vs_1");
      json.Double(cell.speedup_vs_1);
      json.Key("speedup_vs_seq");
      json.Double(cell.speedup_vs_seq);
      json.Key("matches_single_threaded");
      json.Bool(cell.matches_single_threaded);
      json.Key("store_hits");
      json.UInt(cell.store_hits);
      json.Key("store_inserts");
      json.UInt(cell.store_inserts);
      json.Key("store_dominated");
      json.UInt(cell.store_dominated);
      json.Key("store_evictions");
      json.UInt(cell.store_evictions);
      json.Key("store_cas_retries");
      json.UInt(cell.store_cas_retries);
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

bool ParseThreadList(const char* text, std::vector<int>* grid) {
  grid->clear();
  std::string token;
  for (const char* p = text;; ++p) {
    if (*p != '\0' && *p != ',') {
      token += *p;
      continue;
    }
    if (token.empty()) return false;
    char* end = nullptr;
    long threads = std::strtol(token.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || threads < 1 || threads > 1024) {
      return false;
    }
    grid->push_back(static_cast<int>(threads));
    token.clear();
    if (*p == '\0') break;
  }
  // threads=1 is the speedup_vs_1 denominator — always measured, and first.
  grid->push_back(1);
  std::sort(grid->begin(), grid->end());
  grid->erase(std::unique(grid->begin(), grid->end()), grid->end());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path = "BENCH_parallel_search.json";
  int repeats = 3;
  std::vector<int> thread_grid = {1, 2, 4, 8};
  bcast::ParallelSearchOptions tuning;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
      if (repeats < 1) repeats = 1;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!ParseThreadList(argv[++i], &thread_grid)) {
        std::fprintf(stderr,
                     "--threads expects a comma-separated list of positive "
                     "thread counts, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--batch-factor") == 0 && i + 1 < argc) {
      tuning.batch_factor = std::atoi(argv[++i]);
      if (tuning.batch_factor < 1) {
        std::fprintf(stderr, "--batch-factor must be >= 1\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_parallel_search [--json[=path]] [--repeats N] "
                   "[--threads LIST] [--batch-factor N]\n");
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
    std::string name = "m";
    name += std::to_string(fanout);
    name += "_d";
    name += std::to_string(depth);
    name += "_k";
    name += std::to_string(channels);
    if (!RunInstance(name, *tree, fanout, depth, channels, repeats,
                     thread_grid, tuning, &reports)) {
      return 1;
    }
  }

  // Skewed random families (depth 0 = not a balanced tree; fanout = max).
  // rand13 is the deepest search of the small suite (regression-gate
  // ballast); rand11 is the instance family where the SortingHeuristic
  // incumbent is near-optimal and the seeded DFS expands >= 2x fewer nodes;
  // deep18 (max_fanout 2 — near-chain shape, the worst case for the bound)
  // pushes the unseeded DFS past 10^6 expansions so the parallel cells are
  // dominated by search work and store contention rather than task spawn
  // overhead. deep18 is the instance the CI scaling gate
  // (check_search_regression.py --require-speedup) reads.
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
                       repeats, thread_grid, tuning, &reports)) {
        return 1;
      }
    }
  }

  PrintTable(reports);
  if (json) {
    if (!WriteJson(json_path, reports, tuning.batch_factor)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
