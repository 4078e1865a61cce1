// BroadcastPlanner: the one-call public API of the library.
//
// Takes a finalized index tree and a channel count, picks (or is told) an
// allocation strategy, and returns the slot allocation, the channel-assigned
// schedule (paper Section 3.1 channel rules), and the full analytic cost
// breakdown. This is the entry point the examples and most downstream users
// should prefer; the individual algorithms remain available in src/alloc/.

#ifndef BCAST_CORE_PLANNER_H_
#define BCAST_CORE_PLANNER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/heuristics.h"
#include "alloc/optimal.h"
#include "alloc/replication.h"
#include "broadcast/cost.h"
#include "broadcast/schedule.h"
#include "tree/index_tree.h"
#include "util/status.h"

namespace bcast {

enum class PlanStrategy {
  /// Level allocation when channels cover the widest level (Corollary 1),
  /// exact search for small trees, otherwise the better of the two
  /// heuristics.
  kAuto,
  kOptimal,            // exact search (<= 64 nodes)
  kSorting,            // index-tree sorting heuristic
  kShrinking,          // index-tree shrinking heuristic
  kLevelAllocation,    // one level per slot (needs wide channels)
  kPreorder,           // naive preorder baseline
  kGreedyWeight,       // index-oblivious greedy baseline
};

/// Human-readable strategy name ("optimal", "sorting", ...).
const char* PlanStrategyName(PlanStrategy strategy);

/// How far PlanBroadcast may degrade an OPTIMAL plan when the search budget
/// or deadline (OptimalOptions::budget) fires before the exact search
/// finishes. The ladder runs exact -> anytime incumbent -> sorting
/// heuristic; each policy admits a prefix of it.
enum class DegradePolicy {
  kNever,      // budget exhaustion is an error (RESOURCE_EXHAUSTED)
  kAnytime,    // serve a truncated-search incumbent, but never a heuristic
  kHeuristic,  // full ladder: incumbent if one exists, else the heuristic
};

/// Human-readable policy name ("never", "anytime", "heuristic").
const char* DegradePolicyName(DegradePolicy policy);

struct PlannerOptions {
  int num_channels = 1;
  PlanStrategy strategy = PlanStrategy::kAuto;
  ShrinkOptions shrink;
  OptimalOptions optimal;
  /// Degradation ceiling for budgeted OPTIMAL plans (ignored when
  /// optimal.budget is inactive — an unbudgeted exact search never degrades).
  DegradePolicy degrade = DegradePolicy::kHeuristic;
  /// Index replication of the planned cycle. root_copies == 1 (the default)
  /// plans the bare schedule; > 1 additionally materializes a replicated
  /// program (BroadcastPlan::replicated), which shortens the probe wait and
  /// gives the fault-recovery protocol earlier retry occurrences.
  ReplicationOptions replication;
};

/// A complete broadcast program: allocation, channel assignment, and costs.
struct BroadcastPlan {
  PlanStrategy strategy_used = PlanStrategy::kAuto;
  AllocationResult allocation;
  BroadcastSchedule schedule;
  AccessCosts costs;
  /// Present iff PlannerOptions::replication asked for extra index copies.
  std::optional<ReplicatedProgram> replicated;
  /// Mirror of allocation.provenance, hoisted for callers that only keep the
  /// schedule around.
  PlanProvenance provenance = PlanProvenance::kExact;
  /// True iff an OPTIMAL request was answered with something weaker than the
  /// exact optimum (anytime incumbent or heuristic fallback). Strategies that
  /// are heuristic by construction (kSorting, kAuto on large trees, ...) are
  /// not "degraded" — they delivered exactly what was asked for.
  bool degraded = false;
};

/// Plans one broadcast cycle. Errors propagate from the chosen algorithm
/// (e.g. OPTIMAL on a tree over 64 nodes).
Result<BroadcastPlan> PlanBroadcast(const IndexTree& tree,
                                    const PlannerOptions& options);

/// One PlanBroadcast call of a batch.
struct PlanRequest {
  /// Must be non-null, finalized, and outlive the PlanMany call.
  const IndexTree* tree = nullptr;
  PlannerOptions options;
};

/// Called with the request's index before that request is planned: the
/// chaos-testing seam (fault/task_fault.h). May throw, exactly like a
/// throwing planner.
using TaskHook = std::function<void(uint64_t request_index)>;

/// Plans a batch of independent broadcast cycles concurrently, one
/// exec/parallel_for.h index per request. `num_threads` follows the
/// OptimalOptions convention: 0 = hardware concurrency, 1 = plan
/// sequentially on the calling thread. Result i is exactly what
/// PlanBroadcast(*requests[i].tree, requests[i].options) would return —
/// per-request errors land in the corresponding slot instead of failing the
/// batch. Intended for replanning fleets of trees at once (see
/// sim/server_sim.h's adaptive server).
///
/// `task_hook`, when non-null, runs as hook(i) right before request i is
/// planned, on every call whatever the thread count or batch size. A hook or
/// planner that throws does not crash or hang the batch: the exception
/// becomes a kInternal Status in request i's own slot, and the other
/// requests are planned as usual.
std::vector<Result<BroadcastPlan>> PlanMany(
    const std::vector<PlanRequest>& requests, int num_threads = 0,
    TaskHook task_hook = nullptr);

}  // namespace bcast

#endif  // BCAST_CORE_PLANNER_H_
