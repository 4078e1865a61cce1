// Fork-join over an index range: the execution substrate of the batch planner
// (core/PlanMany) and the population simulator (popsim/popsim.h).
//
// Both callers fan out a fixed batch of independent tasks of about equal
// size and join it, and no task spawns subtasks. So there is no queue and no
// stealing: workers claim the next index from one shared atomic counter,
// which balances equal tasks as well as any scheduler would. Threads live for
// one call only; the caller is one of the workers.
//
// The executor knows nothing about search or simulation. Determinism
// therefore cannot come from it — callers that need order-independent results
// make every index write only its own output slot.

#ifndef BCAST_EXEC_PARALLEL_FOR_H_
#define BCAST_EXEC_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

#include "util/status.h"

namespace bcast {

/// Runs body(i) exactly once for every i in [0, n) on min(threads, n)
/// workers, the calling thread among them, and joins every worker before
/// returning. With threads <= 1 or n <= 1 the caller runs the indices inline,
/// in index order.
///
/// A body that throws does not terminate the process or stop the batch: the
/// other indices still run, and the call returns the exception, converted to
/// a kInternal Status, of the lowest index that threw — independent of
/// timing. Bodies that threw beyond that one are counted in
/// `pool.group_task_errors`.
Status ParallelFor(int threads, size_t n,
                   const std::function<void(size_t)>& body);

/// std::thread::hardware_concurrency(), clamped to >= 1 (the standard allows
/// 0 for "unknown").
int HardwareConcurrency();

}  // namespace bcast

#endif  // BCAST_EXEC_PARALLEL_FOR_H_
