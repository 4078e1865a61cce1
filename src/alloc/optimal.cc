#include "alloc/optimal.h"

#include <cmath>
#include <limits>

#include "alloc/baselines.h"
#include "alloc/heuristics.h"
#include "alloc/topo_search.h"
#include "obs/obs.h"

namespace bcast {

namespace {

// Node budget of PruningCensus: the census walks the reduced tree without a
// bound, so it is capped well below the optimizer's expansion limit.
constexpr uint64_t kCensusNodeLimit = 2'000'000;

// Resolves the incumbent seed (a total weighted wait V) for the exact
// topological-tree search, per options.seed_incumbent. Returns +inf for an
// unseeded search. The returned bound carries a tiny relative inflation so
// that a heuristic cost recomputed as ADW x total_weight — which can land an
// ulp *below* the search's own slot-by-slot V accumulation of the very same
// allocation — still admits it (a seed below the true optimum would prune
// every path and turn into an INTERNAL dead-end error).
double ResolveSeedCost(const IndexTree& tree, int num_channels,
                       const OptimalOptions& options) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (options.seed_incumbent == OptimalOptions::SeedIncumbent::kNone) {
    return kInf;
  }
  double seed_adw = kInf;
  auto heuristic = SortingHeuristic(tree, num_channels);
  if (heuristic.ok()) {
    seed_adw = heuristic->average_data_wait;
    if (obs::MetricsEnabled()) {
      obs::GetCounter("search.seed.heuristic").Increment();
    }
  }
  if (options.seed_incumbent == OptimalOptions::SeedIncumbent::kPrevious &&
      !std::isnan(options.warm_start_adw) &&
      options.warm_start_adw < seed_adw) {
    seed_adw = options.warm_start_adw;
    if (obs::MetricsEnabled()) {
      obs::GetCounter("search.seed.warm_start").Increment();
    }
  }
  if (seed_adw == kInf) return kInf;
  double seed_v = seed_adw * tree.total_data_weight();
  seed_v *= 1.0 + 1e-9;  // float-slack so the seeding allocation itself fits
  return seed_v;
}

}  // namespace

Result<AllocationResult> FindOptimalAllocation(const IndexTree& tree,
                                               int num_channels,
                                               const OptimalOptions& options) {
  if (!tree.finalized()) {
    return FailedPreconditionError("index tree must be finalized");
  }
  if (num_channels < 1) return InvalidArgumentError("need at least one channel");
  if (options.num_threads < 0) {
    return InvalidArgumentError("num_threads must be >= 0");
  }

  const bool budgeted = options.budget.active();
  if (num_channels >= tree.max_level_width()) {
    return LevelAllocation(tree, num_channels);
  }
  TopoTreeSearch::Options topo_options;
  topo_options.num_channels = num_channels;
  topo_options.prune_candidates = options.use_pruning;
  topo_options.prune_local_swap = options.use_pruning;
  topo_options.bound = options.bound;
  topo_options.max_expansions = options.max_expansions;
  auto search = TopoTreeSearch::Create(tree, topo_options);
  if (!search.ok()) return search.status();
  const double seed_cost_v = ResolveSeedCost(tree, num_channels, options);
  Result<AllocationResult> result = search->FindOptimalDfs(
      seed_cost_v, budgeted ? &options.budget : nullptr);
  if (!result.ok() && budgeted &&
      result.status().code() == StatusCode::kResourceExhausted) {
    // Degradation ladder stage 3: the budget fired before any complete path
    // (or the hard valve tripped) — serve the sorting heuristic rather than
    // nothing. Tagged kHeuristic with its own (verified) cost bracket.
    obs::GetCounter("search.budget.heuristic_fallback").Increment();
    return SortingHeuristic(tree, num_channels);
  }
  return result;
}

Result<SearchStats> PruningCensus(const IndexTree& tree, int num_channels,
                                  const OptimalOptions& options) {
  // Only the pruning switch shapes the reduced tree: the walk consults no
  // bound, and its node limit trips long before the default expansion valve.
  TopoTreeSearch::Options census_options;
  census_options.num_channels = num_channels;
  census_options.prune_candidates = options.use_pruning;
  census_options.prune_local_swap = options.use_pruning;
  auto search = TopoTreeSearch::Create(tree, census_options);
  if (!search.ok()) return search.status();
  return search->ReducedTreeStats(kCensusNodeLimit);
}

}  // namespace bcast
