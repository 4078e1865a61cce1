#include "alloc/allocation.h"

#include <string>
#include <string_view>

#include "obs/obs.h"
#include "util/check.h"

namespace bcast {

const char* PlanProvenanceName(PlanProvenance provenance) {
  switch (provenance) {
    case PlanProvenance::kExact:
      return "exact";
    case PlanProvenance::kAnytime:
      return "anytime";
    case PlanProvenance::kHeuristic:
      return "heuristic";
    case PlanProvenance::kStalePrevious:
      return "stale-previous";
  }
  BCAST_CHECK(false) << "unknown PlanProvenance";
  return "unknown";
}

void EmitSearchStats(const char* prefix, const SearchStats& stats) {
  obs::Registry* registry = obs::GlobalMetrics();
  if (registry == nullptr) return;
  // One key buffer for every counter: the prefix stays, the suffix is
  // rewritten in place.
  std::string key(prefix);
  const size_t prefix_size = key.size();
  auto add = [&](std::string_view name, uint64_t value) {
    key.resize(prefix_size);
    key += name;
    registry->GetCounter(key).Add(value);
  };
  add(".nodes_expanded", stats.nodes_expanded);
  add(".nodes_generated", stats.nodes_generated);
  add(".nodes_pruned", stats.nodes_pruned);
  add(".paths_completed", stats.paths_completed);
  add(".bound_cutoffs", stats.bound_cutoffs);
  add(".incumbent_updates", stats.incumbent_updates);
  add(".dominance_skips", stats.dominance_skips);
  add(".store.hits", stats.store_hits);
  add(".store.inserts", stats.store_inserts);
  add(".store.dominated", stats.store_dominated);
  add(".store.evictions", stats.store_evictions);
  const PruneCounts& rules = stats.pruned_by_rule;
  add(".pruned.property1", rules.property1);
  add(".pruned.property2", rules.property2);
  add(".pruned.property3", rules.property3);
  add(".pruned.lemma3", rules.lemma3);
  add(".pruned.lemma4", rules.lemma4);
  add(".pruned.lemma5", rules.lemma5);
  add(".pruned.lemma6", rules.lemma6);
  add(".pruned.corollary2", rules.corollary2);
}

void EmitPruningBreakdown(const SearchStats& stats) {
  obs::Registry* registry = obs::GlobalMetrics();
  if (registry == nullptr) return;
  auto add = [&](const char* name, uint64_t value) {
    registry->GetCounter(name).Add(value);
  };
  add("pruning.property1", stats.pruned_by_rule.property1);
  add("pruning.property2", stats.pruned_by_rule.property2);
  add("pruning.property3", stats.pruned_by_rule.property3);
  add("pruning.lemma3", stats.pruned_by_rule.lemma3);
  add("pruning.lemma4", stats.pruned_by_rule.lemma4);
  add("pruning.lemma5", stats.pruned_by_rule.lemma5);
  add("pruning.lemma6", stats.pruned_by_rule.lemma6);
  add("pruning.corollary2", stats.pruned_by_rule.corollary2);
  add("pruning.reduced_tree_nodes", stats.nodes_expanded);
  add("pruning.generated", stats.nodes_generated);
}

double SlotSequenceDataWait(const IndexTree& tree, const SlotSequence& slots) {
  double total_weight = tree.total_data_weight();
  BCAST_CHECK_GT(total_weight, 0.0);
  std::vector<bool> seen(static_cast<size_t>(tree.num_nodes()), false);
  double weighted = 0.0;
  for (size_t s = 0; s < slots.size(); ++s) {
    for (NodeId node : slots[s]) {
      seen[static_cast<size_t>(node)] = true;
      if (tree.is_data(node)) {
        weighted += tree.weight(node) * static_cast<double>(s + 1);
      }
    }
  }
  for (NodeId d : tree.DataNodes()) {
    BCAST_CHECK(seen[static_cast<size_t>(d)])
        << "data node '" << tree.label(d) << "' missing from slot sequence";
  }
  return weighted / total_weight;
}

Status ValidateSlotSequence(const IndexTree& tree, int num_channels,
                            const SlotSequence& slots) {
  std::vector<int> slot_of(static_cast<size_t>(tree.num_nodes()), -1);
  for (size_t s = 0; s < slots.size(); ++s) {
    if (static_cast<int>(slots[s].size()) > num_channels) {
      return FailedPreconditionError("slot " + std::to_string(s + 1) +
                                     " exceeds the channel count");
    }
    for (NodeId node : slots[s]) {
      if (node < 0 || node >= tree.num_nodes()) {
        return InvalidArgumentError("slot sequence references unknown node " +
                                    std::to_string(node));
      }
      if (slot_of[static_cast<size_t>(node)] != -1) {
        return FailedPreconditionError("node '" + tree.label(node) +
                                       "' appears twice");
      }
      slot_of[static_cast<size_t>(node)] = static_cast<int>(s);
    }
  }
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (slot_of[static_cast<size_t>(id)] == -1) {
      return FailedPreconditionError("node '" + tree.label(id) + "' unallocated");
    }
    NodeId parent = tree.parent(id);
    if (parent != kInvalidNode &&
        slot_of[static_cast<size_t>(parent)] >= slot_of[static_cast<size_t>(id)]) {
      return FailedPreconditionError("child '" + tree.label(id) +
                                     "' not strictly after parent '" +
                                     tree.label(parent) + "'");
    }
  }
  return Status::Ok();
}

}  // namespace bcast
