#include "checks.h"

#include <cmath>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

// Absolute tolerance on average data waits (the verifier's own default).
constexpr double kAdwTolerance = 1e-6;

// Same channel count, cycle length and cell labels.
bool SameProgram(const bcast::IndexTree& tree,
                 const bcast::BroadcastSchedule& schedule,
                 const bcast::BroadcastProgram& program) {
  const bcast::BroadcastSchedule& other = program.schedule;
  if (program.tree.num_nodes() != tree.num_nodes() ||
      other.num_channels() != schedule.num_channels() ||
      other.num_slots() != schedule.num_slots()) {
    return false;
  }
  for (int c = 0; c < schedule.num_channels(); ++c) {
    for (int s = 0; s < schedule.num_slots(); ++s) {
      const bcast::NodeId a = schedule.at(c, s);
      const bcast::NodeId b = other.at(c, s);
      if ((a == bcast::kInvalidNode) != (b == bcast::kInvalidNode)) {
        return false;
      }
      if (a != bcast::kInvalidNode &&
          tree.label(a) != program.tree.label(b)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

std::string CheckPlan(
    const bcast::IndexTree& tree,
    const bcast::Result<bcast::BroadcastPlan>& plan,
    const std::optional<bcast::VerifyReport>& report,
    const std::optional<bcast::Result<std::string>>& text,
    const std::optional<bcast::Result<bcast::BroadcastProgram>>& parsed,
    bool require_exact) {
  if (!plan.ok()) return "plan failed: " + plan.status().ToString();
  if (require_exact && plan->provenance != bcast::PlanProvenance::kExact) {
    return std::string("plan provenance is ") +
           bcast::PlanProvenanceName(plan->provenance) + ", not exact";
  }
  if (!report->ok()) return "verifier: " + report->ToString();
  const double claimed = plan->allocation.average_data_wait;
  if (!report->priced ||
      std::fabs(report->recomputed_data_wait - claimed) > kAdwTolerance) {
    return "claimed ADW " + std::to_string(claimed) +
           " differs from the verifier's " +
           std::to_string(report->recomputed_data_wait);
  }
  if (!text->ok()) return "format: " + text->status().ToString();
  if (!parsed->ok()) return "parse: " + parsed->status().ToString();
  if (!SameProgram(tree, plan->schedule, **parsed)) {
    return "program text does not round-trip";
  }
  return "";
}

void AddPlanToDigest(const bcast::AllocationResult& allocation,
                     Digest* digest) {
  digest->Add(allocation.slots.size());
  for (const std::vector<bcast::NodeId>& slot : allocation.slots) {
    digest->Add(slot.size());
    for (bcast::NodeId node : slot) {
      digest->Add(static_cast<uint64_t>(static_cast<int64_t>(node)));
    }
  }
  digest->AddDouble(allocation.average_data_wait);
}

double WaitQuantile(const bcast::IndexTree& tree,
                    const bcast::BroadcastSchedule& schedule,
                    const std::vector<double>& weights, double q) {
  std::vector<double> waits;
  for (bcast::NodeId d : tree.DataNodes()) {
    waits.push_back(static_cast<double>(schedule.DataWaitOf(d)));
  }
  return WeightedQuantile(waits, weights, q);
}

double PlanWaitQuantile(const bcast::IndexTree& tree,
                        const bcast::BroadcastSchedule& schedule, double q) {
  std::vector<double> weights;
  for (bcast::NodeId d : tree.DataNodes()) weights.push_back(tree.weight(d));
  return WaitQuantile(tree, schedule, weights, q);
}

double WaitUnder(const bcast::IndexTree& tree,
                 const bcast::BroadcastSchedule& schedule,
                 const std::vector<double>& weights) {
  const std::vector<bcast::NodeId> data = tree.DataNodes();
  double weighted = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    weighted += weights[i] * static_cast<double>(schedule.DataWaitOf(data[i]));
    total += weights[i];
  }
  return total > 0.0 ? weighted / total : 0.0;
}

}  // namespace perfbench
