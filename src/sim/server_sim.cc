#include "sim/server_sim.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "alloc/allocation.h"
#include "alloc/optimal.h"
#include "obs/obs.h"
#include "obs/stream.h"
#include "tree/alphabetic.h"
#include "util/check.h"
#include "verify/verifier.h"
#include "workload/frequency.h"

namespace bcast {

namespace {

// Builds the catalog index from per-item weights (items keep key order; the
// i-th data leaf is item i).
Result<IndexTree> BuildCatalogIndex(const std::vector<double>& weights,
                                    int fanout) {
  std::vector<DataItem> items;
  items.reserve(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    items.push_back({"item" + std::to_string(i), weights[i]});
  }
  return BuildGreedyAlphabeticTree(items, fanout);
}

// Expected data wait of `plan` when queries follow `true_weights`.
double ExpectedWaitUnder(const IndexTree& tree, const BroadcastSchedule& schedule,
                         const std::vector<double>& true_weights) {
  std::vector<NodeId> data = tree.DataNodes();
  BCAST_CHECK_EQ(data.size(), true_weights.size());
  double weighted = 0.0, total = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    weighted += true_weights[i] * static_cast<double>(schedule.DataWaitOf(data[i]));
    total += true_weights[i];
  }
  BCAST_CHECK_GT(total, 0.0);
  return weighted / total;
}

}  // namespace

Result<AdaptiveServerReport> RunAdaptiveServer(
    std::vector<double> initial_true_weights, const DriftFn& drift, Rng* rng,
    const AdaptiveServerOptions& options) {
  if (initial_true_weights.empty()) {
    return InvalidArgumentError("empty catalog");
  }
  if (options.num_cycles < 1 || options.queries_per_cycle < 1) {
    return InvalidArgumentError("need at least one cycle and one query");
  }
  if (options.max_delivery_attempts < 1) {
    return InvalidArgumentError("need at least one delivery attempt");
  }
  const int num_items = static_cast<int>(initial_true_weights.size());
  std::vector<double> true_weights = std::move(initial_true_weights);

  FrequencyEstimator estimator(num_items, options.estimator_decay);

  PlannerOptions plan_options;
  plan_options.num_channels = options.num_channels;
  plan_options.strategy = options.strategy;
  plan_options.degrade = options.degrade;
  plan_options.optimal.budget.max_expansions = options.plan_budget_expansions;
  plan_options.optimal.budget.deadline_ns = options.plan_deadline_ns;
  plan_options.optimal.budget.clock = options.plan_clock;

  // Chaos injector for the planning batch (inactive by default). The
  // injector outlives every PlanMany call below; each cycle wraps it in a
  // hook that offsets PlanMany's request index by the cycle, because an
  // unoffset injector would fault the same batch positions every cycle. So
  // (cycle, request) -> fault is fully deterministic, whatever the thread
  // count.
  std::optional<TaskFaultInjector> task_fault_injector;
  if (options.task_faults.active()) {
    auto injector = TaskFaultInjector::Create(options.task_faults);
    if (!injector.ok()) return injector.status();
    task_fault_injector.emplace(std::move(injector).value());
  }

  // Initial plan from the (uniform) prior estimates.
  auto replan = [&](const std::vector<double>& weights)
      -> Result<std::pair<IndexTree, BroadcastPlan>> {
    auto tree = BuildCatalogIndex(weights, options.index_fanout);
    if (!tree.ok()) return tree.status();
    auto plan = PlanBroadcast(*tree, plan_options);
    if (!plan.ok()) return plan.status();
    return std::make_pair(std::move(tree).value(), std::move(plan).value());
  };

  auto active = replan(estimator.EstimatedWeights());
  if (!active.ok()) return active.status();
  IndexTree active_tree = std::move(active->first);
  BroadcastSchedule active_schedule = std::move(active->second.schedule);
  std::vector<NodeId> active_data = active_tree.DataNodes();
  // Slot sequence of the allocation currently on air, kept for warm-starting
  // the next due replan.
  SlotSequence active_slots = std::move(active->second.allocation.slots);
  PlanProvenance active_provenance = active->second.provenance;

  // Ladder stage 4 state: consecutive failed replans drive an exponential
  // backoff on the next attempt (1, 2, 4, ... up to 64 cycles).
  int consecutive_replan_failures = 0;
  int next_replan_attempt = 0;

  // Downlink faults draw from their own substream: a lossless run makes no
  // fault draws, so its query sequence is bit-identical to the seed loop.
  Rng fault_rng = rng->Substream(RngStream::kFault);
  const bool faulty = options.faults.active();

  obs::ScopedSpan run_span("sim.adaptive_server");
  // Flush-on-degrade: every early return below (failed replan with
  // allow_stale=false, verifier rejection of a stale plan, ...) still emits
  // the fin record and flushes the sink via this guard.
  obs::TelemetryFinishGuard telemetry_guard(options.telemetry);
  AdaptiveServerReport report;
  report.mean_delivery_success = 0.0;
  int delivered_cycles = 0;
  for (int cycle = 0; cycle < options.num_cycles; ++cycle) {
    obs::ScopedSpan cycle_span("sim.cycle");
    obs::GetCounter("sim.cycles").Increment();
    // The cycle needs up to two independent plans: the oracle's (from the
    // true weights, every cycle) and the server's due replan (from the
    // current estimates, never at cycle 0: the initial plan is already in
    // place). Both are planned from weights fixed for the whole cycle —
    // drift applies only between cycles — so they batch through PlanMany.
    bool replan_due = options.replan_every > 0 && cycle > 0 &&
                      cycle % options.replan_every == 0;
    if (replan_due && cycle < next_replan_attempt) {
      // Backing off after consecutive replan failures: keep the stale plan
      // on air and skip this attempt entirely.
      replan_due = false;
      obs::GetCounter("planner.backoff_skips").Increment();
      ++report.backoff_skips;
    }
    auto oracle_tree = BuildCatalogIndex(true_weights, options.index_fanout);
    if (!oracle_tree.ok()) return oracle_tree.status();
    Result<IndexTree> next_tree = InternalError("no server replan this cycle");
    std::vector<PlanRequest> batch;
    batch.push_back({&*oracle_tree, plan_options});
    PlannerOptions server_options = plan_options;
    if (replan_due) {
      next_tree = BuildCatalogIndex(estimator.EstimatedWeights(),
                                    options.index_fanout);
      if (!next_tree.ok()) return next_tree.status();
      // Warm start: the allocation on air is a feasible solution for the new
      // tree whenever the rebuilt index kept the same shape — re-cost it
      // under the new weights and hand the exact search min(heuristic,
      // previous) as its initial incumbent. A pure upper bound, so the plan
      // (and the whole report) is byte-identical either way.
      if (options.warm_start_replans && !active_slots.empty() &&
          ValidateSlotSequence(*next_tree, options.num_channels, active_slots)
              .ok()) {
        server_options.optimal.seed_incumbent =
            OptimalOptions::SeedIncumbent::kPrevious;
        server_options.optimal.warm_start_adw =
            SlotSequenceDataWait(*next_tree, active_slots);
      }
      batch.push_back({&*next_tree, server_options});
    }
    // All parallelism is encapsulated in PlanMany's fork-join; the
    // simulator itself stays single-threaded, so none of its state needs
    // lock annotations (util/thread_annotations.h conventions).
    TaskHook cycle_hook = nullptr;
    if (task_fault_injector.has_value()) {
      TaskFaultInjector* injector = &*task_fault_injector;
      const uint64_t base = static_cast<uint64_t>(cycle) * 1024;
      cycle_hook = [injector, base](uint64_t index) {
        injector->OnTask(base + index);
      };
    }
    std::vector<Result<BroadcastPlan>> plans =
        PlanMany(batch, options.planner_threads, cycle_hook);

    Result<BroadcastPlan> oracle_plan = std::move(plans[0]);
    if (!oracle_plan.ok() && task_fault_injector.has_value()) {
      // An injected fault can kill the oracle's request too. The oracle is
      // the report's baseline, not part of the serving ladder, so retry it
      // once without the hook.
      obs::GetCounter("sim.oracle_plan_retries").Increment();
      oracle_plan = PlanBroadcast(*oracle_tree, plan_options);
    }
    if (!oracle_plan.ok()) return oracle_plan.status();
    const BroadcastSchedule& oracle_schedule = oracle_plan->schedule;

    if (replan_due) {
      Result<BroadcastPlan>& server_plan = plans[1];
      if (server_plan.ok()) {
        active_tree = std::move(next_tree).value();
        active_schedule = std::move(server_plan->schedule);
        active_data = active_tree.DataNodes();
        active_slots = std::move(server_plan->allocation.slots);
        active_provenance = server_plan->provenance;
        consecutive_replan_failures = 0;
      } else if (options.allow_stale) {
        // Ladder stage 4: the planner failed outright (injected fault,
        // budget under DegradePolicy::kNever, ...). Keep the previous
        // cycle's plan on air — it is still feasible for the tree it was
        // built for — and back off exponentially before the next attempt.
        ++consecutive_replan_failures;
        next_replan_attempt =
            cycle + (1 << std::min(consecutive_replan_failures, 6));
        active_provenance = PlanProvenance::kStalePrevious;
        obs::GetCounter("planner.degraded.stale").Increment();
        ++report.stale_serves;
        // Every degraded serve is re-verified before going (back) on air.
        BCAST_RETURN_IF_ERROR(
            AllocationVerifier(active_tree)
                .VerifySlots(options.num_channels, active_slots,
                             SlotSequenceDataWait(active_tree, active_slots))
                .ToStatus());
      } else {
        return server_plan.status();
      }
    }

    // Serve this cycle's queries from the TRUE distribution. Under a faulty
    // downlink the client re-reads a lost/corrupted data bucket at the same
    // slot of the next cycle, so every retry costs one full cycle; the
    // realized wait is averaged over delivered queries only.
    const int cycle_len = active_schedule.num_slots();
    double realized = 0.0;
    int delivered = 0;
    for (int q = 0; q < options.queries_per_cycle; ++q) {
      int item = static_cast<int>(rng->WeightedIndex(true_weights));
      NodeId node = active_data[static_cast<size_t>(item)];
      estimator.Observe(item);  // the request itself always reaches the server
      double wait = static_cast<double>(active_schedule.DataWaitOf(node));
      if (faulty) {
        SlotRef ref = active_schedule.placement(node);
        FaultProcess medium(options.faults, &fault_rng);
        int attempt = 0;
        while (attempt < options.max_delivery_attempts &&
               medium.Observe(ref.channel,
                              ref.slot + static_cast<int64_t>(attempt) *
                                             cycle_len) != BucketOutcome::kOk) {
          ++attempt;
        }
        if (attempt == options.max_delivery_attempts) continue;  // undelivered
        wait += static_cast<double>(attempt) * cycle_len;
      }
      realized += wait;
      ++delivered;
    }
    // A cycle that delivered nothing has no realized wait — averaging in 0
    // (the best possible wait) would flatter the mean exactly when the
    // downlink is at its worst, so such cycles report NaN and are excluded
    // from mean_realized.
    if (delivered > 0) {
      realized /= delivered;
      report.mean_realized += realized;
      ++delivered_cycles;
    } else {
      realized = std::numeric_limits<double>::quiet_NaN();
    }
    const double delivery_rate =
        static_cast<double>(delivered) / options.queries_per_cycle;

    double oracle_wait =
        ExpectedWaitUnder(*oracle_tree, oracle_schedule, true_weights);

    CycleStats stats;
    stats.cycle = cycle;
    stats.realized_data_wait = realized;
    stats.oracle_data_wait = oracle_wait;
    stats.estimation_error =
        NormalizedEstimationError(estimator.EstimatedWeights(), true_weights);
    stats.delivery_success_rate = delivery_rate;
    stats.served_provenance = active_provenance;
    report.cycles.push_back(stats);
    report.mean_oracle += oracle_wait;
    report.mean_delivery_success += delivery_rate;

    if (options.telemetry != nullptr) {
      obs::TelemetryPipeline& telemetry = *options.telemetry;
      telemetry.Observe("sim.realized_wait", realized);
      telemetry.Observe("sim.oracle_wait", oracle_wait);
      telemetry.Observe("sim.estimation_error", stats.estimation_error);
      telemetry.Observe("sim.delivery_rate", delivery_rate);
      // Degradation ladder rung on air: 0 exact, 1 anytime, 2 heuristic,
      // 3 stale-previous (alloc/allocation.h enumerator order).
      telemetry.Observe("sim.served_rung",
                        static_cast<double>(active_provenance));
      telemetry.Tick(static_cast<uint64_t>(cycle));
    }

    estimator.EndEpoch();
    if (drift) drift(cycle, &true_weights);
  }
  report.mean_realized =
      delivered_cycles > 0 ? report.mean_realized / delivered_cycles
                           : std::numeric_limits<double>::quiet_NaN();
  report.mean_oracle /= options.num_cycles;
  report.mean_delivery_success /= options.num_cycles;
  telemetry_guard.set_outcome(
      report.stale_serves > 0 || report.backoff_skips > 0 ? "degraded" : "ok");
  return report;
}

}  // namespace bcast
