#include "verify/verifier.h"

#include <cmath>
#include <sstream>

#include "broadcast/cost.h"
#include "util/check.h"

namespace bcast {

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kUnknownNode:
      return "UNKNOWN_NODE";
    case ViolationKind::kDuplicatePlacement:
      return "DUPLICATE_PLACEMENT";
    case ViolationKind::kMissingNode:
      return "MISSING_NODE";
    case ViolationKind::kChannelOutOfRange:
      return "CHANNEL_OUT_OF_RANGE";
    case ViolationKind::kSlotOutOfRange:
      return "SLOT_OUT_OF_RANGE";
    case ViolationKind::kSlotOverflow:
      return "SLOT_OVERFLOW";
    case ViolationKind::kGridInconsistency:
      return "GRID_INCONSISTENCY";
    case ViolationKind::kOrderViolation:
      return "ORDER_VIOLATION";
    case ViolationKind::kCycleLengthMismatch:
      return "CYCLE_LENGTH_MISMATCH";
    case ViolationKind::kDataWaitMismatch:
      return "DATA_WAIT_MISMATCH";
  }
  return "UNKNOWN_VIOLATION";
}

std::string Violation::ToString() const {
  std::ostringstream os;
  os << ViolationKindName(kind);
  if (node != kInvalidNode) os << " node " << node;
  os << ": " << detail;
  return os.str();
}

std::string VerifyReport::ToString() const {
  std::ostringstream os;
  for (const Violation& violation : violations) {
    os << violation.ToString() << "\n";
  }
  if (suppressed > 0) {
    os << "(+" << suppressed << " more violations suppressed)\n";
  }
  return os.str();
}

Status VerifyReport::ToStatus() const {
  if (ok()) return Status::Ok();
  size_t total = violations.size() + static_cast<size_t>(suppressed);
  return FailedPreconditionError("allocation verification found " +
                                 std::to_string(total) + " violation(s):\n" +
                                 ToString());
}

// Caps the report at Options::max_violations, counting the overflow.
class AllocationVerifier::Collector {
 public:
  Collector(int cap, VerifyReport* report) : cap_(cap), report_(report) {}

  void Add(ViolationKind kind, NodeId node, NodeId other, std::string detail) {
    if (static_cast<int>(report_->violations.size()) >= cap_) {
      ++report_->suppressed;
      return;
    }
    report_->violations.push_back({kind, node, other, std::move(detail)});
  }

  bool any() const {
    return !report_->violations.empty() || report_->suppressed > 0;
  }

 private:
  int cap_;
  VerifyReport* report_;
};

AllocationVerifier::AllocationVerifier(const IndexTree& tree)
    : AllocationVerifier(tree, Options()) {}

AllocationVerifier::AllocationVerifier(const IndexTree& tree, Options options)
    : tree_(tree), options_(options) {
  BCAST_CHECK(tree.finalized()) << "verifier needs a finalized tree";
  BCAST_CHECK_GE(options_.max_violations, 1);
}

std::string AllocationVerifier::NodeName(NodeId id) const {
  if (id < 0 || id >= tree_.num_nodes()) return "#" + std::to_string(id);
  const std::string& label = tree_.label(id);
  if (label.empty()) return "#" + std::to_string(id);
  return "'" + label + "'";
}

void AllocationVerifier::CheckOrderAndPrice(const std::vector<int>& slot_of,
                                            bool allow_pricing, Collector* out,
                                            VerifyReport* report) const {
  bool complete = true;
  for (NodeId id = 0; id < tree_.num_nodes(); ++id) {
    int slot = slot_of[static_cast<size_t>(id)];
    if (slot == -1) {
      complete = false;
      out->Add(ViolationKind::kMissingNode, id, kInvalidNode,
               "node " + NodeName(id) + " is never broadcast");
      continue;
    }
    NodeId parent = tree_.parent(id);
    if (parent == kInvalidNode) continue;
    int parent_slot = slot_of[static_cast<size_t>(parent)];
    if (parent_slot != -1 && parent_slot >= slot) {
      out->Add(ViolationKind::kOrderViolation, id, parent,
               "child " + NodeName(id) + " (slot " + std::to_string(slot) +
                   ") is not strictly after its parent " + NodeName(parent) +
                   " (slot " + std::to_string(parent_slot) + ")");
    }
  }
  if (!allow_pricing || !complete) return;

  // Independent recomputation of the paper's formula (1): both the weighted
  // sum and the normalizer are re-derived here rather than taken from
  // IndexTree::total_data_weight() or broadcast/cost.cc. The normalizer is
  // positive: Finalize rejects a tree whose data weights do not sum to a
  // positive finite total.
  double weighted = 0.0;
  double total_weight = 0.0;
  for (NodeId id = 0; id < tree_.num_nodes(); ++id) {
    if (!tree_.is_data(id)) continue;
    total_weight += tree_.weight(id);
    weighted +=
        tree_.weight(id) * static_cast<double>(slot_of[static_cast<size_t>(id)]);
  }
  report->recomputed_data_wait = weighted / total_weight;
  report->priced = true;
}

VerifyReport AllocationVerifier::VerifySlots(
    int num_channels, const std::vector<std::vector<NodeId>>& slots) const {
  VerifyReport report;
  Collector out(options_.max_violations, &report);

  std::vector<int> slot_of(static_cast<size_t>(tree_.num_nodes()), -1);
  bool sound = true;  // no unknowns/duplicates -> the ADW is well defined
  for (size_t s = 0; s < slots.size(); ++s) {
    int slot_number = static_cast<int>(s) + 1;
    if (slots[s].empty()) {
      out.Add(ViolationKind::kCycleLengthMismatch, kInvalidNode, kInvalidNode,
              "slot " + std::to_string(slot_number) +
                  " is empty: the producer lost track of its cycle length");
    }
    if (num_channels >= 1 &&
        static_cast<int>(slots[s].size()) > num_channels) {
      NodeId overflow = slots[s][static_cast<size_t>(num_channels)];
      out.Add(ViolationKind::kSlotOverflow,
              (overflow >= 0 && overflow < tree_.num_nodes()) ? overflow
                                                              : kInvalidNode,
              kInvalidNode,
              "slot " + std::to_string(slot_number) + " holds " +
                  std::to_string(slots[s].size()) + " nodes but only " +
                  std::to_string(num_channels) + " channel(s) exist");
    }
    for (NodeId node : slots[s]) {
      if (node < 0 || node >= tree_.num_nodes()) {
        sound = false;
        out.Add(ViolationKind::kUnknownNode, node, kInvalidNode,
                "slot " + std::to_string(slot_number) +
                    " references node id " + std::to_string(node) +
                    " outside the tree's " + std::to_string(tree_.num_nodes()) +
                    "-node id space");
        continue;
      }
      int& seen = slot_of[static_cast<size_t>(node)];
      if (seen != -1) {
        sound = false;
        out.Add(ViolationKind::kDuplicatePlacement, node, node,
                "node " + NodeName(node) + " placed in both slot " +
                    std::to_string(seen) + " and slot " +
                    std::to_string(slot_number) +
                    " (the mapping must be one-to-one)");
        continue;
      }
      seen = slot_number;
    }
  }
  CheckOrderAndPrice(slot_of, sound, &out, &report);
  return report;
}

VerifyReport AllocationVerifier::VerifySlots(
    int num_channels, const std::vector<std::vector<NodeId>>& slots,
    double claimed_data_wait) const {
  VerifyReport report = VerifySlots(num_channels, slots);
  if (report.priced &&
      std::abs(report.recomputed_data_wait - claimed_data_wait) >
          options_.adw_tolerance) {
    Collector out(options_.max_violations, &report);
    std::ostringstream os;
    os << "claimed average data wait " << claimed_data_wait
       << " but the independent recomputation gives "
       << report.recomputed_data_wait;
    out.Add(ViolationKind::kDataWaitMismatch, kInvalidNode, kInvalidNode,
            os.str());
  }
  return report;
}

VerifyReport AllocationVerifier::VerifySchedule(
    const BroadcastSchedule& schedule) const {
  VerifyReport report;
  Collector out(options_.max_violations, &report);

  const int num_channels = schedule.num_channels();
  const int num_slots = schedule.num_slots();
  std::vector<int> slot_of(static_cast<size_t>(tree_.num_nodes()), -1);
  bool sound = true;

  // Placement-map side: bounds, and agreement with the grid.
  for (NodeId id = 0; id < tree_.num_nodes(); ++id) {
    SlotRef ref = schedule.placement(id);
    if (!ref.placed()) continue;  // reported as MISSING_NODE below
    if (ref.channel < 0 || ref.channel >= num_channels) {
      sound = false;
      out.Add(ViolationKind::kChannelOutOfRange, id, kInvalidNode,
              "node " + NodeName(id) + " placed on channel " +
                  std::to_string(ref.channel + 1) + " but the schedule has " +
                  std::to_string(num_channels) + " channel(s)");
      continue;
    }
    if (ref.slot < 0 || ref.slot >= num_slots) {
      sound = false;
      out.Add(ViolationKind::kSlotOutOfRange, id, kInvalidNode,
              "node " + NodeName(id) + " placed in slot " +
                  std::to_string(ref.slot + 1) + " beyond the " +
                  std::to_string(num_slots) + "-slot cycle");
      continue;
    }
    NodeId occupant = schedule.at(ref.channel, ref.slot);
    if (occupant != id) {
      sound = false;
      out.Add(ViolationKind::kGridInconsistency, id, occupant,
              "placement of node " + NodeName(id) + " points to C" +
                  std::to_string(ref.channel + 1) + "[" +
                  std::to_string(ref.slot + 1) + "] but that bucket holds " +
                  (occupant == kInvalidNode ? std::string("nothing")
                                            : NodeName(occupant)));
      continue;
    }
    slot_of[static_cast<size_t>(id)] = ref.slot + 1;
  }

  // Grid side: every occupied cell must be owned by its occupant's placement
  // (a second copy of a node can only appear as a disowned cell).
  int highest_occupied = -1;
  for (int c = 0; c < num_channels; ++c) {
    for (int s = 0; s < num_slots; ++s) {
      NodeId node = schedule.at(c, s);
      if (node == kInvalidNode) continue;
      highest_occupied = std::max(highest_occupied, s);
      if (node < 0 || node >= tree_.num_nodes()) {
        sound = false;
        out.Add(ViolationKind::kUnknownNode, node, kInvalidNode,
                "bucket C" + std::to_string(c + 1) + "[" +
                    std::to_string(s + 1) + "] holds node id " +
                    std::to_string(node) + " outside the tree's id space");
        continue;
      }
      SlotRef ref = schedule.placement(node);
      if (!(ref == SlotRef{c, s})) {
        sound = false;
        out.Add(ViolationKind::kDuplicatePlacement, node, node,
                "node " + NodeName(node) + " also occupies bucket C" +
                    std::to_string(c + 1) + "[" + std::to_string(s + 1) +
                    "] (the mapping must be one-to-one)");
      }
    }
  }
  if (num_slots > 0 && highest_occupied != num_slots - 1) {
    out.Add(ViolationKind::kCycleLengthMismatch, kInvalidNode, kInvalidNode,
            "cycle declares " + std::to_string(num_slots) +
                " slot(s) but the highest occupied slot is " +
                std::to_string(highest_occupied + 1));
  }

  CheckOrderAndPrice(slot_of, sound, &out, &report);

  // Cross-check against the production cost model only when the schedule is
  // fully valid (AverageDataWait check-fails on structurally broken input).
  if (report.ok() && report.priced) {
    double model = AverageDataWait(tree_, schedule);
    if (std::abs(model - report.recomputed_data_wait) >
        options_.adw_tolerance) {
      std::ostringstream os;
      os << "broadcast/cost.cc computes average data wait " << model
         << " but the independent recomputation gives "
         << report.recomputed_data_wait;
      out.Add(ViolationKind::kDataWaitMismatch, kInvalidNode, kInvalidNode,
              os.str());
    }
  }
  return report;
}

VerifyReport AllocationVerifier::VerifyGrid(
    int num_channels, int num_slots,
    const std::vector<std::vector<NodeId>>& grid) const {
  VerifyReport report;
  Collector out(options_.max_violations, &report);

  std::vector<int> slot_of(static_cast<size_t>(tree_.num_nodes()), -1);
  bool sound = true;
  int highest_occupied = -1;
  for (size_t c = 0; c < grid.size(); ++c) {
    for (size_t s = 0; s < grid[c].size(); ++s) {
      NodeId node = grid[c][s];
      if (node == kInvalidNode) continue;
      int slot_number = static_cast<int>(s) + 1;
      if (node < 0 || node >= tree_.num_nodes()) {
        sound = false;
        out.Add(ViolationKind::kUnknownNode, node, kInvalidNode,
                "bucket C" + std::to_string(c + 1) + "[" +
                    std::to_string(slot_number) + "] holds node id " +
                    std::to_string(node) + " outside the tree's id space");
        continue;
      }
      if (static_cast<int>(c) >= num_channels) {
        sound = false;
        out.Add(ViolationKind::kChannelOutOfRange, node, kInvalidNode,
                "node " + NodeName(node) + " on channel " +
                    std::to_string(c + 1) + " but only " +
                    std::to_string(num_channels) + " channel(s) are declared");
        continue;
      }
      if (static_cast<int>(s) >= num_slots) {
        sound = false;
        out.Add(ViolationKind::kSlotOutOfRange, node, kInvalidNode,
                "node " + NodeName(node) + " in slot " +
                    std::to_string(slot_number) + " beyond the declared " +
                    std::to_string(num_slots) + "-slot cycle");
        continue;
      }
      highest_occupied = std::max(highest_occupied, static_cast<int>(s));
      int& seen = slot_of[static_cast<size_t>(node)];
      if (seen != -1) {
        sound = false;
        out.Add(ViolationKind::kDuplicatePlacement, node, node,
                "node " + NodeName(node) + " placed in both slot " +
                    std::to_string(seen) + " and slot " +
                    std::to_string(slot_number) +
                    " (the mapping must be one-to-one)");
        continue;
      }
      seen = slot_number;
    }
  }
  if (highest_occupied != -1 && highest_occupied != num_slots - 1) {
    out.Add(ViolationKind::kCycleLengthMismatch, kInvalidNode, kInvalidNode,
            "header declares " + std::to_string(num_slots) +
                " slot(s) but the highest occupied slot is " +
                std::to_string(highest_occupied + 1));
  }
  CheckOrderAndPrice(slot_of, sound, &out, &report);
  return report;
}

}  // namespace bcast
