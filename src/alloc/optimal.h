// One-call exact optimizer:
//
//  * num_channels >= max level width  ->  level allocation (Corollary 1:
//    every data node d attains its floor T(d) = level(d), so this is optimal
//    in O(N));
//  * otherwise, one channel included  ->  pruned topological-tree
//    branch-and-bound (Sections 3.1–3.2). With its release-date bound it
//    plans one channel faster than the data-tree search of Section 3.3,
//    which stays for the paper's census and as the tests' oracle.

#ifndef BCAST_ALLOC_OPTIMAL_H_
#define BCAST_ALLOC_OPTIMAL_H_

#include <limits>

#include "alloc/allocation.h"
#include "alloc/search_budget.h"
#include "alloc/topo_search.h"
#include "tree/index_tree.h"
#include "util/status.h"

namespace bcast {

struct OptimalOptions {
  /// Disable to run the raw unpruned search (testing/ablation only).
  bool use_pruning = true;
  /// Forwarded to the underlying searches.
  uint64_t max_expansions = 200'000'000;
  /// No longer affects the exact search, which is single-threaded: every
  /// value >= 0 returns the same allocation and statistics. Still rejected
  /// when negative. Kept only because the benchmark in perfbench/ sets it;
  /// to be removed when that benchmark is next re-cut.
  int num_threads = 1;
  /// Lower-bound estimate used by the topological-tree searches.
  TopoTreeSearch::BoundKind bound = TopoTreeSearch::BoundKind::kPacked;

  /// How the topological-tree branch-and-bound incumbent is seeded before
  /// the first expansion. Seeding is a pure upper bound — the search cuts
  /// children only when they estimate *strictly above* the seed — so the
  /// returned slots/ADW are byte-identical across all three modes; only
  /// nodes_expanded / bound_cutoffs change (the search.seed.* counters
  /// record the applied seed).
  enum class SeedIncumbent {
    /// Start from an infinite incumbent (the pre-seeding behavior).
    kNone,
    /// Seed with the index-tree-sorting heuristic's cost (O(N log N),
    /// negligible next to the exact search). Default.
    kHeuristic,
    /// min(heuristic, warm_start_adw): additionally re-use the cost of a
    /// known feasible allocation from a previous planning cycle, supplied
    /// via warm_start_adw (the adaptive server re-costs the previous
    /// cycle's slots under the new weights).
    kPrevious,
  };
  SeedIncumbent seed_incumbent = SeedIncumbent::kHeuristic;
  /// Average data wait of a previously planned allocation re-costed against
  /// the *current* tree, used when seed_incumbent == kPrevious. NaN = no
  /// previous allocation available (falls back to the heuristic seed).
  double warm_start_adw = std::numeric_limits<double>::quiet_NaN();

  /// Anytime budget (inactive by default — identical behavior to before).
  /// With an active budget the search degrades instead of failing: a stop
  /// mid-search returns the incumbent tagged kAnytime with cost bounds, and
  /// a stop before any complete path falls back to SortingHeuristic tagged
  /// kHeuristic. A pure expansion budget is deterministic: the DFS visits
  /// states in one canonical order.
  SearchBudget budget;
};

/// Exact minimum-average-data-wait allocation. Errors on trees over 64 nodes
/// (use the heuristics) or if the search budget is exhausted (only without an
/// active anytime budget — see OptimalOptions::budget).
Result<AllocationResult> FindOptimalAllocation(const IndexTree& tree,
                                               int num_channels,
                                               const OptimalOptions& options = {});

/// The paper's census of the reduced topological tree (Appendix Steps 2-4,
/// Figs. 9/10, Table 1): node, candidate and per-rule pruning counts of a
/// full walk with no bound, incumbent or memo, so a pure function of the
/// tree, the channel count and options.use_pruning. Not part of planning —
/// FindOptimalAllocation publishes only its own live search.* counters; pass
/// the result to EmitPruningBreakdown to publish it as pruning.*. Errors as
/// TopoTreeSearch::Create does, and RESOURCE_EXHAUSTED past 2,000,000 nodes.
Result<SearchStats> PruningCensus(const IndexTree& tree, int num_channels,
                                  const OptimalOptions& options = {});

}  // namespace bcast

#endif  // BCAST_ALLOC_OPTIMAL_H_
