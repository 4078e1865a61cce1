// Shared types for allocation algorithms.
//
// Every algorithm in src/alloc/ produces a *slot sequence*: for each slot of
// the broadcast cycle, the set of nodes transmitted at that slot (one per
// channel; the compound nodes of the paper's topological tree). The slot
// sequence is channel-agnostic — the average data wait only depends on slots
// (Section 2.2) — and is turned into a concrete channel assignment by
// BuildScheduleFromSlots, which applies the paper's channel rules.

#ifndef BCAST_ALLOC_ALLOCATION_H_
#define BCAST_ALLOC_ALLOCATION_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "broadcast/schedule.h"
#include "tree/index_tree.h"
#include "util/status.h"

namespace bcast {

/// slots[s] = nodes broadcast at slot s (size <= num_channels each).
using SlotSequence = std::vector<std::vector<NodeId>>;

/// Eliminations attributed to the paper's individual pruning rules. Lemmas 1
/// and 2 justify the bound itself, so their effect shows up as
/// SearchStats::bound_cutoffs rather than here; Corollary 1 short-circuits
/// the search entirely (level allocation) and is counted by the planner.
struct PruneCounts {
  uint64_t property1 = 0;   // forced tail once remaining data fits one slot
  uint64_t property2 = 0;   // k=1 heaviest-subtree candidate pruning (Step 2)
  uint64_t property3 = 0;   // k>1 candidate characterizations (Step 2)
  uint64_t lemma3 = 0;      // subset rules: heaviest prefix / child-of-P (Step 3)
  uint64_t lemma4 = 0;      // local data swap dominance (Step 4(i))
  uint64_t lemma5 = 0;      // index preorder-rank order (Step 4(ii))
  uint64_t lemma6 = 0;      // Property 4 exchange argument
  uint64_t corollary2 = 0;  // extended exchange beyond adjacent slots

  uint64_t Total() const {
    return property1 + property2 + property3 + lemma3 + lemma4 + lemma5 +
           lemma6 + corollary2;
  }

  PruneCounts& operator+=(const PruneCounts& other) {
    property1 += other.property1;
    property2 += other.property2;
    property3 += other.property3;
    lemma3 += other.lemma3;
    lemma4 += other.lemma4;
    lemma5 += other.lemma5;
    lemma6 += other.lemma6;
    corollary2 += other.corollary2;
    return *this;
  }
};

/// Instrumentation counters reported by the searches.
struct SearchStats {
  uint64_t nodes_expanded = 0;     // topological-tree nodes visited
  uint64_t nodes_generated = 0;    // next-neighbors created
  uint64_t nodes_pruned = 0;       // next-neighbors eliminated by the rules
  uint64_t paths_completed = 0;    // full allocations reached
  uint64_t bound_cutoffs = 0;      // subtrees cut by the Lemma 1/2 lower bound
  uint64_t incumbent_updates = 0;  // times a new best allocation was adopted
  uint64_t dominance_skips = 0;    // best-first closed-set dominance skips
  // Transposition-memo accounting of the topological-tree DFS (zero for the
  // other searches; see TranspositionMemo in alloc/topo_search.h): hits are
  // states skipped as dominated, inserts are states recorded, dominated are
  // weaker entries replaced in place, evictions are states left unrecorded
  // at the entry cap (re-expanded, never wrong). cas_retries is always 0 and
  // is not published to the registry; it is kept only because the benchmark
  // in perfbench/ still reads it, and goes when that benchmark is next re-cut.
  uint64_t store_hits = 0;
  uint64_t store_inserts = 0;
  uint64_t store_dominated = 0;
  uint64_t store_evictions = 0;
  uint64_t store_cas_retries = 0;
  PruneCounts pruned_by_rule;      // attribution of nodes_pruned (see above)

  SearchStats& operator+=(const SearchStats& other) {
    nodes_expanded += other.nodes_expanded;
    nodes_generated += other.nodes_generated;
    nodes_pruned += other.nodes_pruned;
    paths_completed += other.paths_completed;
    bound_cutoffs += other.bound_cutoffs;
    incumbent_updates += other.incumbent_updates;
    dominance_skips += other.dominance_skips;
    store_hits += other.store_hits;
    store_inserts += other.store_inserts;
    store_dominated += other.store_dominated;
    store_evictions += other.store_evictions;
    store_cas_retries += other.store_cas_retries;
    pruned_by_rule += other.pruned_by_rule;
    return *this;
  }
};

/// Folds `stats` into the global metrics registry under `prefix` (e.g.
/// "search.topo_dfs"). No-op when no registry is installed.
void EmitSearchStats(const char* prefix, const SearchStats& stats);

/// Publishes a census (PruningCensus in alloc/optimal.h) under the
/// "pruning." namespace. No-op when no registry is installed.
void EmitPruningBreakdown(const SearchStats& stats);

/// How an allocation was obtained — the quality class a consumer can rely
/// on. The degradation ladder (core/planner.h) walks these top to bottom.
enum class PlanProvenance {
  kExact,          // proven optimal (search ran to completion)
  kAnytime,        // best incumbent of a budget/deadline/cancel-stopped search
  kHeuristic,      // a heuristic or baseline, no optimality claim
  kStalePrevious,  // a previous cycle's plan re-served after planner failure
};

/// Canonical name ("exact", "anytime", "heuristic", "stale-previous").
const char* PlanProvenanceName(PlanProvenance provenance);

/// The outcome of an allocation algorithm.
struct AllocationResult {
  SlotSequence slots;
  double average_data_wait = 0.0;
  SearchStats stats;
  PlanProvenance provenance = PlanProvenance::kExact;
  /// Bracket on the *optimal* average data wait for this (tree, channels)
  /// instance: cost_lower_bound <= optimum <= cost_upper_bound. Exact results
  /// have both equal to average_data_wait; anytime results report the folded
  /// frontier bound; heuristics report an instance lower bound where one is
  /// cheap (else NaN = unknown). cost_upper_bound always equals
  /// average_data_wait of the returned (feasible) slots.
  double cost_lower_bound = std::numeric_limits<double>::quiet_NaN();
  double cost_upper_bound = std::numeric_limits<double>::quiet_NaN();
};

/// Average data wait of a slot sequence (formula 1): Σ W(d)·(slot(d)+1) / ΣW.
/// Check-fails if a data node is missing from the sequence.
double SlotSequenceDataWait(const IndexTree& tree, const SlotSequence& slots);

/// Validates that `slots` is a feasible allocation for `num_channels`
/// channels: every node exactly once, per-slot size <= num_channels, child
/// strictly after parent.
Status ValidateSlotSequence(const IndexTree& tree, int num_channels,
                            const SlotSequence& slots);

}  // namespace bcast

#endif  // BCAST_ALLOC_ALLOCATION_H_
