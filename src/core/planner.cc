#include "core/planner.h"

#include <exception>
#include <string>
#include <utility>

#include "alloc/baselines.h"
#include "broadcast/schedule_builder.h"
#include "exec/parallel_for.h"
#include "obs/obs.h"
#include "verify/verifier.h"

namespace bcast {

const char* PlanStrategyName(PlanStrategy strategy) {
  switch (strategy) {
    case PlanStrategy::kAuto:
      return "auto";
    case PlanStrategy::kOptimal:
      return "optimal";
    case PlanStrategy::kSorting:
      return "sorting";
    case PlanStrategy::kShrinking:
      return "shrinking";
    case PlanStrategy::kLevelAllocation:
      return "level";
    case PlanStrategy::kPreorder:
      return "preorder";
    case PlanStrategy::kGreedyWeight:
      return "greedy-weight";
  }
  return "unknown";
}

const char* DegradePolicyName(DegradePolicy policy) {
  switch (policy) {
    case DegradePolicy::kNever:
      return "never";
    case DegradePolicy::kAnytime:
      return "anytime";
    case DegradePolicy::kHeuristic:
      return "heuristic";
  }
  return "unknown";
}

namespace {

Result<AllocationResult> RunStrategy(const IndexTree& tree,
                                     const PlannerOptions& options,
                                     PlanStrategy strategy) {
  switch (strategy) {
    case PlanStrategy::kOptimal:
      return FindOptimalAllocation(tree, options.num_channels, options.optimal);
    case PlanStrategy::kSorting:
      return SortingHeuristic(tree, options.num_channels);
    case PlanStrategy::kShrinking:
      return ShrinkingHeuristic(tree, options.num_channels, options.shrink);
    case PlanStrategy::kLevelAllocation:
      return LevelAllocation(tree, options.num_channels);
    case PlanStrategy::kPreorder:
      return PreorderBaseline(tree, options.num_channels);
    case PlanStrategy::kGreedyWeight:
      return GreedyWeightBaseline(tree, options.num_channels);
    case PlanStrategy::kAuto:
      break;
  }
  return InvalidArgumentError("kAuto must be resolved before RunStrategy");
}

// Exact search is affordable up to roughly this many nodes in interactive
// settings; beyond it kAuto switches to the heuristics.
constexpr int kAutoExactLimit = 24;

}  // namespace

Result<BroadcastPlan> PlanBroadcast(const IndexTree& tree,
                                    const PlannerOptions& options) {
  if (!tree.finalized()) {
    return FailedPreconditionError("index tree must be finalized");
  }
  if (options.num_channels < 1) {
    return InvalidArgumentError("need at least one channel");
  }

  obs::ScopedSpan span("plan");
  obs::ScopedTimer timer(obs::GetHistogram("plan.total_ns"));
  PlanStrategy strategy = options.strategy;
  AllocationResult allocation;
  if (strategy == PlanStrategy::kAuto) {
    if (options.num_channels >= tree.max_level_width()) {
      strategy = PlanStrategy::kLevelAllocation;
      auto result = LevelAllocation(tree, options.num_channels);
      if (!result.ok()) return result.status();
      allocation = std::move(result).value();
    } else if (tree.num_nodes() <= kAutoExactLimit) {
      strategy = PlanStrategy::kOptimal;
      auto result =
          FindOptimalAllocation(tree, options.num_channels, options.optimal);
      if (!result.ok()) return result.status();
      allocation = std::move(result).value();
    } else {
      // Run both heuristics (each near-linear) and keep the better one.
      auto sorting = SortingHeuristic(tree, options.num_channels);
      auto shrinking =
          ShrinkingHeuristic(tree, options.num_channels, options.shrink);
      if (!sorting.ok()) return sorting.status();
      if (!shrinking.ok() ||
          sorting->average_data_wait <= shrinking->average_data_wait) {
        strategy = PlanStrategy::kSorting;
        allocation = std::move(sorting).value();
      } else {
        strategy = PlanStrategy::kShrinking;
        allocation = std::move(shrinking).value();
      }
    }
  } else {
    auto result = RunStrategy(tree, options, strategy);
    if (!result.ok()) return result.status();
    allocation = std::move(result).value();
  }

  // Degradation ladder accounting: only an OPTIMAL request can be degraded —
  // the search budget fired and the allocation carries a weaker provenance
  // than the exact optimum that was asked for.
  const bool degraded = strategy == PlanStrategy::kOptimal &&
                        allocation.provenance != PlanProvenance::kExact;
  if (degraded) {
    switch (allocation.provenance) {
      case PlanProvenance::kAnytime:
        if (options.degrade == DegradePolicy::kNever) {
          return ResourceExhaustedError(
              "plan budget exhausted and degrade policy 'never' forbids "
              "serving the anytime incumbent");
        }
        obs::GetCounter("planner.degraded.anytime").Increment();
        break;
      case PlanProvenance::kHeuristic:
        if (options.degrade != DegradePolicy::kHeuristic) {
          return ResourceExhaustedError(
              std::string("plan budget exhausted before any incumbent and "
                          "degrade policy '") +
              DegradePolicyName(options.degrade) +
              "' forbids the heuristic fallback");
        }
        obs::GetCounter("planner.degraded.heuristic").Increment();
        break;
      case PlanProvenance::kExact:
      case PlanProvenance::kStalePrevious:
        break;
    }
    obs::GetCounter("planner.deadline_missed").Increment();
    // A degraded plan bypassed the exact search's completion invariants, so
    // re-check it even in release builds before anyone serves it.
    BCAST_RETURN_IF_ERROR(AllocationVerifier(tree)
                              .VerifySlots(options.num_channels,
                                           allocation.slots,
                                           allocation.average_data_wait)
                              .ToStatus());
  }

  if (obs::MetricsEnabled()) {
    obs::GetCounter("planner.plans").Increment();
    obs::GetCounter(std::string("planner.strategy.") +
                    PlanStrategyName(strategy))
        .Increment();
  }

  auto schedule =
      BuildScheduleFromSlots(tree, options.num_channels, allocation.slots);
  if (!schedule.ok()) return schedule.status();

  BroadcastPlan plan{strategy, std::move(allocation),
                     std::move(schedule).value(), AccessCosts{}, std::nullopt};
  plan.provenance = plan.allocation.provenance;
  plan.degraded = degraded;
  plan.costs = ComputeAccessCosts(tree, plan.schedule);
  if (options.replication.root_copies > 1) {
    auto replicated = BuildReplicatedProgram(
        tree, plan.allocation.slots, options.num_channels, options.replication);
    if (!replicated.ok()) return replicated.status();
    plan.replicated = std::move(replicated).value();
  }
  // Debug builds verify the full plan: the channel-assigned schedule (cross-
  // checked against broadcast/cost.cc) and the strategy's claimed data wait.
  BCAST_DCHECK_OK(AllocationVerifier(tree).VerifySchedule(plan.schedule).ToStatus());
  BCAST_DCHECK_OK(AllocationVerifier(tree)
                      .VerifySlots(options.num_channels, plan.allocation.slots,
                                   plan.allocation.average_data_wait)
                      .ToStatus());
  return plan;
}

std::vector<Result<BroadcastPlan>> PlanMany(
    const std::vector<PlanRequest>& requests, int num_threads,
    TaskHook task_hook) {
  obs::ScopedSpan span("plan_many");
  // Join-synchronized, deliberately unannotated (util/thread_annotations.h
  // conventions): each index writes only its own slot and the vector is not
  // resized while they run, so ParallelFor's join is the only happens-before
  // edge needed. The fill value is a placeholder: every body assigns its slot.
  std::vector<Result<BroadcastPlan>> results(
      requests.size(), Result<BroadcastPlan>(InternalError("not planned")));
  auto plan_one = [&](size_t i) -> Result<BroadcastPlan> {
    if (task_hook) task_hook(i);
    const PlanRequest& request = requests[i];
    if (request.tree == nullptr) {
      return InvalidArgumentError("PlanRequest::tree is null");
    }
    return PlanBroadcast(*request.tree, request.options);
  };
  if (num_threads == 0) num_threads = HardwareConcurrency();
  // Every body catches its own exception into its own slot, so the batch
  // status is always OK.
  (void)ParallelFor(num_threads, requests.size(), [&](size_t i) {
    try {
      results[i] = plan_one(i);
    } catch (const std::exception& e) {
      results[i] = InternalError(std::string("plan request threw: ") + e.what());
    } catch (...) {
      results[i] = InternalError("plan request threw a non-std exception");
    }
  });
  return results;
}

}  // namespace bcast
