// Fault injection for the planner's own execution substrate.
//
// fault_model.h chaos-tests the *medium* (lost buckets on the downlink);
// this module chaos-tests the *planner*: a TaskFaultInjector hooks into
// core/PlanMany's per-request hook and makes a configurable fraction of
// planning requests throw or stall, proving that a planning exception
// surfaces as a Status in that request's result and that the adaptive
// server's degradation ladder keeps serving verifier-clean plans when
// replans fail mid-flight.
//
// Determinism: the fail/stall decision for task index i is a pure function of
// (seed, i) — a stateless hash of the RngStream::kTaskFault substream key and
// the task index — so a chaos run faults the same task indices regardless of
// the thread count, which thread plans which request or in what order, and
// an injector with zero fractions perturbs nothing.

#ifndef BCAST_FAULT_TASK_FAULT_H_
#define BCAST_FAULT_TASK_FAULT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>

#include "util/status.h"

namespace bcast {

struct TaskFaultOptions {
  /// Fraction of tasks that throw TaskFaultError. In [0, 1].
  double fail_fraction = 0.0;

  /// Fraction of tasks that stall for stall_ns before running. In
  /// [0, 1]; fail_fraction + stall_fraction must be <= 1.
  double stall_fraction = 0.0;

  /// Busy-wait duration of a stalled task.
  uint64_t stall_ns = 100'000;

  /// Seed for the kTaskFault substream key.
  uint64_t seed = 0;

  /// True iff this injector can ever perturb a task.
  bool active() const { return fail_fraction > 0.0 || stall_fraction > 0.0; }
};

/// The exception an injected task failure throws. Deliberately a
/// std::runtime_error subclass: PlanMany must convert *arbitrary* planning
/// exceptions to Status, not just a type it knows about.
class TaskFaultError : public std::runtime_error {
 public:
  explicit TaskFaultError(const std::string& what) : std::runtime_error(what) {}
};

/// Deterministic task-level chaos. Thread-safe: OnTask is called concurrently
/// from PlanMany's workers.
class TaskFaultInjector {
 public:
  /// Validates fractions (each in [0,1], sum <= 1).
  static Result<TaskFaultInjector> Create(const TaskFaultOptions& options);

  TaskFaultInjector(TaskFaultInjector&& other) noexcept;
  TaskFaultInjector& operator=(TaskFaultInjector&&) = delete;
  TaskFaultInjector(const TaskFaultInjector&) = delete;
  TaskFaultInjector& operator=(const TaskFaultInjector&) = delete;

  /// Decides the fate of task `task_index`: throws TaskFaultError, busy-waits
  /// stall_ns, or returns immediately. Pure in (seed, task_index) aside from
  /// the fault/stall counters.
  void OnTask(uint64_t task_index);

  /// Adapter for PlanMany's TaskHook: the task index is the request index.
  /// The injector must outlive the PlanMany call.
  std::function<void(uint64_t)> Hook() {
    return [this](uint64_t task_index) { OnTask(task_index); };
  }

  /// Tasks failed / stalled so far (for test accounting).
  uint64_t fault_count() const {
    return fault_count_.load(std::memory_order_relaxed);
  }
  uint64_t stall_count() const {
    return stall_count_.load(std::memory_order_relaxed);
  }

 private:
  explicit TaskFaultInjector(const TaskFaultOptions& options);

  TaskFaultOptions options_;
  uint64_t key_ = 0;  // kTaskFault substream key; fixed after construction
  std::atomic<uint64_t> fault_count_{0};
  std::atomic<uint64_t> stall_count_{0};
};

}  // namespace bcast

#endif  // BCAST_FAULT_TASK_FAULT_H_
