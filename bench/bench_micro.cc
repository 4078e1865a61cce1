// M1 — google-benchmark microbenchmarks: construction, search and simulation
// throughput, and the speedup delivered by the paper's pruning rules and by
// the packed lower bound (the ablations DESIGN.md calls out).

#include <benchmark/benchmark.h>

#include <cstring>
#include <optional>

#include "alloc/data_tree.h"
#include "alloc/heuristics.h"
#include "alloc/topo_search.h"
#include "core/planner.h"
#include "obs/obs.h"
#include "popsim/popsim.h"
#include "tree/alphabetic.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "workload/weights.h"

namespace bcast {
namespace {

IndexTree MakeBenchTree(int num_data, uint64_t seed) {
  Rng rng(seed);
  return MakeRandomTree(&rng, num_data, 3);
}

std::vector<DataItem> MakeItems(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<DataItem> items;
  for (int i = 0; i < n; ++i) {
    items.push_back({"d" + std::to_string(i),
                     static_cast<double>(rng.UniformInt(1, 1000))});
  }
  return items;
}

// --- index construction -------------------------------------------------------

void BM_BuildHuTucker(benchmark::State& state) {
  auto items = MakeItems(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    auto tree = BuildHuTuckerTree(items);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_BuildHuTucker)->Arg(32)->Arg(128)->Arg(512);

void BM_BuildOptimalAlphabetic(benchmark::State& state) {
  auto items = MakeItems(static_cast<int>(state.range(0)), 2);
  int fanout = static_cast<int>(state.range(1));
  for (auto _ : state) {
    auto tree = BuildOptimalAlphabeticTree(items, fanout);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_BuildOptimalAlphabetic)->Args({64, 2})->Args({64, 4})->Args({128, 4});

void BM_BuildGreedyAlphabetic(benchmark::State& state) {
  auto items = MakeItems(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    auto tree = BuildGreedyAlphabeticTree(items, 4);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_BuildGreedyAlphabetic)->Arg(1000)->Arg(10000);

// --- exact searches: pruning ablation ------------------------------------------

void BM_TopoSearchOptimal(benchmark::State& state) {
  IndexTree tree = MakeBenchTree(7, 11);
  TopoTreeSearch::Options options;
  options.num_channels = static_cast<int>(state.range(0));
  options.prune_candidates = state.range(1) != 0;
  options.prune_local_swap = state.range(1) != 0;
  for (auto _ : state) {
    auto search = TopoTreeSearch::Create(tree, options);
    auto result = search->FindOptimalDfs();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TopoSearchOptimal)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1});

void BM_TopoBoundAblation(benchmark::State& state) {
  IndexTree tree = MakeBenchTree(8, 12);
  TopoTreeSearch::Options options;
  options.num_channels = 2;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  options.bound = state.range(0) != 0 ? TopoTreeSearch::BoundKind::kPacked
                                      : TopoTreeSearch::BoundKind::kPaperNextSlot;
  for (auto _ : state) {
    auto search = TopoTreeSearch::Create(tree, options);
    auto result = search->FindOptimalDfs();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TopoBoundAblation)->Arg(0)->Arg(1);

void BM_DataTreeOptimal(benchmark::State& state) {
  Rng rng(13);
  std::vector<double> weights = UniformWeights(&rng, 16, 1.0, 1000.0);
  IndexTree tree = std::move(MakeFullBalancedTree(4, 3, weights)).value();
  DataTreeOptions options;
  options.extended_exchange = state.range(0) != 0;
  for (auto _ : state) {
    auto search = DataTreeSearch::Create(tree, options);
    auto result = search->FindOptimal();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DataTreeOptimal)->Arg(0)->Arg(1);

// --- heuristics -----------------------------------------------------------------

void BM_SortingHeuristic(benchmark::State& state) {
  IndexTree tree = MakeBenchTree(static_cast<int>(state.range(0)), 14);
  for (auto _ : state) {
    auto result = SortingHeuristic(tree, 4);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SortingHeuristic)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ShrinkingHeuristic(benchmark::State& state) {
  IndexTree tree = MakeBenchTree(static_cast<int>(state.range(0)), 15);
  for (auto _ : state) {
    auto result = ShrinkingHeuristic(tree, 4);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ShrinkingHeuristic)->Arg(100)->Arg(1000);

// --- end-to-end -----------------------------------------------------------------

void BM_PlanBroadcastAuto(benchmark::State& state) {
  IndexTree tree = MakeBenchTree(static_cast<int>(state.range(0)), 16);
  PlannerOptions options;
  options.num_channels = 3;
  for (auto _ : state) {
    auto plan = PlanBroadcast(tree, options);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanBroadcastAuto)->Arg(8)->Arg(200);

// Exact planning at serving-loop size: 18 Zipf(0.9) items under a greedy
// fanout-3 index (27 nodes), two channels. Under --obs this leg shows any
// work a live registry adds to an exact plan.
void BM_PlanBroadcastExact(benchmark::State& state) {
  std::vector<double> weights = ZipfWeights(18, 0.9);
  std::vector<DataItem> items;
  for (size_t i = 0; i < weights.size(); ++i) {
    items.push_back({"item" + std::to_string(i), weights[i]});
  }
  IndexTree tree = std::move(BuildGreedyAlphabeticTree(items, 3)).value();
  PlannerOptions options;
  options.num_channels = 2;
  options.strategy = PlanStrategy::kOptimal;
  for (auto _ : state) {
    auto plan = PlanBroadcast(tree, options);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanBroadcastExact);

void BM_SimulatedQueries(benchmark::State& state) {
  IndexTree tree = MakeBenchTree(50, 17);
  PlannerOptions options;
  options.num_channels = 2;
  options.strategy = PlanStrategy::kSorting;
  auto plan = PlanBroadcast(tree, options);
  auto sim = PopulationSimulator::Create(tree, plan->schedule);
  PopSimOptions sim_options;
  sim_options.population.num_clients = 1000;
  sim_options.seed = 18;
  for (auto _ : state) {
    auto report = sim->Run(sim_options);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatedQueries);

}  // namespace
}  // namespace bcast

// Custom main instead of BENCHMARK_MAIN(): `--obs` installs a live metrics
// registry + trace recorder for the whole run, so the same binary measures
// both the disabled-observability baseline and the instrumented cost. CI
// diffs the two (tools/bench_gate.py overhead) to enforce the overhead budget.
int main(int argc, char** argv) {
  bool obs_on = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs") == 0) {
      obs_on = true;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;

  // Static: the sinks must outlive every benchmark iteration and the
  // harness shutdown (worker-pool destructors flush into the registry).
  static bcast::obs::Registry registry;
  static bcast::obs::TraceRecorder recorder;
  std::optional<bcast::obs::ScopedObservability> scope;
  if (obs_on) scope.emplace(&registry, &recorder);

  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
