// Output checks shared by the workloads: a plan must be verifier-clean, its
// claimed average data wait must match the verifier's recomputation, and its
// program text must round-trip.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <optional>
#include <string>

#include "broadcast/program_io.h"
#include "core/planner.h"
#include "harness.h"
#include "verify/verifier.h"

namespace perfbench {

/// Empty when every check passes, else what failed. `report` and `text` are
/// set iff the plan succeeded; `parsed` iff the text was formatted.
std::string CheckPlan(
    const bcast::IndexTree& tree,
    const bcast::Result<bcast::BroadcastPlan>& plan,
    const std::optional<bcast::VerifyReport>& report,
    const std::optional<bcast::Result<std::string>>& text,
    const std::optional<bcast::Result<bcast::BroadcastProgram>>& parsed,
    bool require_exact);

/// Folds an allocation's slot sequence and average data wait into `digest`.
void AddPlanToDigest(const bcast::AllocationResult& allocation,
                     Digest* digest);

/// The `q` quantile of the data wait a client sees on `schedule` when
/// clients ask for data node d with probability weights[i] (weights follow
/// tree.DataNodes() order).
double WaitQuantile(const bcast::IndexTree& tree,
                    const bcast::BroadcastSchedule& schedule,
                    const std::vector<double>& weights, double q);

/// WaitQuantile under the tree's own data weights.
double PlanWaitQuantile(const bcast::IndexTree& tree,
                        const bcast::BroadcastSchedule& schedule, double q);

/// Average data wait of `schedule` when requests follow `weights`
/// (tree.DataNodes() order).
double WaitUnder(const bcast::IndexTree& tree,
                 const bcast::BroadcastSchedule& schedule,
                 const std::vector<double>& weights);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
