// Adaptive broadcast server simulation (paper future-work #1, end to end).
//
// Runs a server over many broadcast cycles against a *drifting* true access
// distribution the server never sees directly. Each cycle the server serves
// weighted client queries from the active schedule, feeds the observed
// requests into a FrequencyEstimator, and (optionally) replans the next
// cycle's index tree and allocation from the estimates. The report compares,
// per cycle, the realized average data wait against an oracle that replans
// from the true weights — quantifying both the cost of estimation noise and
// the cost of not adapting at all (replan_every = 0).

#ifndef BCAST_SIM_SERVER_SIM_H_
#define BCAST_SIM_SERVER_SIM_H_

#include <functional>
#include <vector>

#include "core/planner.h"
#include "fault/fault_model.h"
#include "fault/task_fault.h"
#include "obs/clock.h"
#include "util/rng.h"
#include "util/status.h"

namespace bcast::obs {
class TelemetryPipeline;
}  // namespace bcast::obs

namespace bcast {

struct AdaptiveServerOptions {
  int num_channels = 2;
  int num_cycles = 20;
  int queries_per_cycle = 2000;
  /// Exponential decay of the frequency estimator per cycle.
  double estimator_decay = 0.5;
  /// Allocation strategy used by both the server and the oracle.
  PlanStrategy strategy = PlanStrategy::kSorting;
  /// Replan every R cycles; 0 = plan once from the initial estimates and
  /// never adapt (the static strawman).
  int replan_every = 1;
  /// Index fanout for the rebuilt alphabetic tree.
  int index_fanout = 4;
  /// Downlink fault model: each served query's data bucket is subject to
  /// loss, and an unusable bucket is retried on the next cycle (same slot one
  /// cycle later), inflating the realized wait by one cycle per retry. The
  /// default is a lossless medium; the uplink (request stream feeding the
  /// estimator) is always assumed reliable.
  FaultModel faults;
  /// Per-query delivery attempts (1 + retries) before the query counts as
  /// undelivered.
  int max_delivery_attempts = 8;
  /// Worker threads for the per-cycle planning batch (the server's due replan
  /// and the oracle's every-cycle replan go through core/PlanMany together).
  /// 1 = plan sequentially, 0 = hardware concurrency. Planning is
  /// deterministic, so the report is identical for every value.
  int planner_threads = 1;
  /// Warm-start each due replan: re-cost the previous cycle's slot sequence
  /// under the new tree (when it is still feasible for it) and seed the
  /// exact search's incumbent with min(heuristic, previous) via
  /// OptimalOptions::SeedIncumbent::kPrevious. Seeding is a pure upper
  /// bound, so the report is byte-identical with this on or off — it only
  /// shrinks the searched tree (see search.seed.* / search.*.bound_* in the
  /// metrics). Only plans that dispatch to the exact search are affected.
  bool warm_start_replans = true;
  /// Deterministic per-replan expansion budget for OPTIMAL plans (0 = none).
  /// Exhaustion yields an anytime incumbent, byte-identical across
  /// planner_threads values (see alloc/search_budget.h).
  uint64_t plan_budget_expansions = 0;
  /// Wall-clock planning deadline per replan, nanoseconds (0 = none). Not
  /// deterministic across runs or thread counts — prefer the expansion
  /// budget when reproducibility matters.
  uint64_t plan_deadline_ns = 0;
  /// Clock the deadline is measured on; null = the monotonic wall clock.
  /// Tests inject an obs::ManualClock to make deadline behavior
  /// deterministic.
  obs::Clock* plan_clock = nullptr;
  /// Degradation ceiling handed to the planner (ladder stages 2-3:
  /// anytime incumbent, then sorting heuristic).
  DegradePolicy degrade = DegradePolicy::kHeuristic;
  /// Ladder stage 4: when a due replan fails outright, keep serving the
  /// previous cycle's plan (provenance kStalePrevious) and back off
  /// exponentially before retrying, instead of failing the run. false =
  /// propagate the planning error.
  bool allow_stale = true;
  /// Chaos testing: injects deterministic failures/stalls into the planning
  /// batch's requests (fault/task_fault.h), keyed by (cycle, request index),
  /// so a chaos run is identical for every planner_threads value. A killed
  /// oracle request is retried without the hook so the report baseline
  /// survives.
  TaskFaultOptions task_faults;
  /// Streaming telemetry (obs/stream.h): when set, each cycle stages the
  /// realized/oracle waits, estimation error, delivery rate and the served
  /// degradation rung, then closes one tick keyed by the cycle ordinal
  /// (never wall clock). The pipeline is Finish()ed on EVERY exit path —
  /// "ok", "degraded" (stale serves / backoff skips) or "error" — so the
  /// stream is never silently truncated. Purely observational: the report
  /// and every RNG draw are byte-identical with this on or off.
  obs::TelemetryPipeline* telemetry = nullptr;
};

/// Per-cycle outcome.
struct CycleStats {
  int cycle = 0;
  /// Mean data wait realized by this cycle's *delivered* queries on the
  /// active schedule. A cycle in which every query missed its retry budget
  /// delivered nothing and has no realized wait to report: this field is
  /// then NaN — deliberately not 0.0 (which would read as "instant
  /// delivery" exactly when the downlink was at its worst) and not +inf
  /// (which would poison any downstream average). NaN cycles are excluded
  /// from AdaptiveServerReport::mean_realized; delivery_success_rate (0.0
  /// for such a cycle) is the signal that carries the outage instead.
  /// Consumers reducing over cycles must skip NaN entries (std::isnan),
  /// mirroring what RunAdaptiveServer itself does.
  double realized_data_wait = 0.0;
  /// Expected data wait of an oracle plan built from the true weights.
  double oracle_data_wait = 0.0;
  /// Normalized estimator error against the true distribution.
  double estimation_error = 0.0;
  /// Fraction of this cycle's queries whose data bucket was delivered within
  /// the retry budget (1.0 on a lossless downlink).
  double delivery_success_rate = 1.0;
  /// Provenance of the plan on air this cycle; kStalePrevious while a failed
  /// replan leaves the previous cycle's plan serving (ladder stage 4).
  PlanProvenance served_provenance = PlanProvenance::kExact;
};

struct AdaptiveServerReport {
  std::vector<CycleStats> cycles;
  /// Mean realized data wait over cycles that delivered at least one query.
  /// Undelivered-only cycles (CycleStats::realized_data_wait == NaN) are
  /// excluded from both the numerator and the denominator — they carry no
  /// wait observation, and averaging in any placeholder would bias the
  /// metric in the direction of the placeholder. NaN when *no* cycle
  /// delivered anything (0/0: the mean is undefined, and NaN makes that
  /// unmissable where a silent 0.0 would look like a perfect run).
  double mean_realized = 0.0;
  double mean_oracle = 0.0;
  /// Mean per-cycle delivery success (1.0 on a lossless downlink).
  double mean_delivery_success = 1.0;
  /// Cycles served from a stale (previous-cycle) plan after a failed replan.
  int stale_serves = 0;
  /// Due replans skipped while backing off after consecutive failures.
  int backoff_skips = 0;
};

/// Mutates the true weights between cycles (popularity drift).
using DriftFn = std::function<void(int cycle, std::vector<double>* weights)>;

/// Runs the loop. `initial_true_weights[i]` is item i's true request rate;
/// items keep their catalog (key) order across replans. Errors propagate
/// from planning.
Result<AdaptiveServerReport> RunAdaptiveServer(
    std::vector<double> initial_true_weights, const DriftFn& drift, Rng* rng,
    const AdaptiveServerOptions& options);

}  // namespace bcast

#endif  // BCAST_SIM_SERVER_SIM_H_
