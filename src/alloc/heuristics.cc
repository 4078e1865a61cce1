#include "alloc/heuristics.h"

#include <algorithm>
#include <deque>
#include <string>

#include "alloc/data_tree.h"
#include "broadcast/cost.h"
#include "obs/obs.h"
#include "util/check.h"
#include "verify/verifier.h"

namespace bcast {

namespace {

// The paper's subtree ordering (Section 4.2): A precedes B iff
// N_B·W(A) >= N_A·W(B). Implemented as a strict comparator (ties keep the
// original order via stable_sort).
bool SubtreeBefore(const IndexTree& tree, NodeId a, NodeId b) {
  const TreeNode& na = tree.node(a);
  const TreeNode& nb = tree.node(b);
  return na.subtree_weight * static_cast<double>(nb.subtree_size) >
         nb.subtree_weight * static_cast<double>(na.subtree_size);
}

// Children of `id`, reordered by the sorting rule.
std::vector<NodeId> SortedChildren(const IndexTree& tree, NodeId id) {
  std::vector<NodeId> kids = tree.children(id);
  std::stable_sort(kids.begin(), kids.end(), [&](NodeId a, NodeId b) {
    return SubtreeBefore(tree, a, b);
  });
  return kids;
}

// Preorder of the tree with children visited in sorted order; this is the
// paper's single-channel sorted broadcast (Fig. 13).
std::vector<NodeId> SortedPreorder(const IndexTree& tree) {
  std::vector<NodeId> order;
  order.reserve(static_cast<size_t>(tree.num_nodes()));
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    order.push_back(id);
    std::vector<NodeId> kids = SortedChildren(tree, id);
    for (size_t i = kids.size(); i-- > 0;) stack.push_back(kids[i]);
  }
  return order;
}

void CopySorted(const IndexTree& src, NodeId src_id, IndexTree* dst,
                NodeId dst_parent) {
  const TreeNode& n = src.node(src_id);
  NodeId dst_id;
  if (n.kind == NodeKind::kData) {
    dst_id = dst->AddDataNode(dst_parent, n.weight, n.label);
    return;
  }
  dst_id = dst->AddIndexNode(dst_parent, n.label);
  for (NodeId child : SortedChildren(src, src_id)) {
    CopySorted(src, child, dst, dst_id);
  }
}

}  // namespace

IndexTree SortIndexTree(const IndexTree& tree) {
  BCAST_CHECK(tree.finalized());
  IndexTree sorted;
  CopySorted(tree, tree.root(), &sorted, kInvalidNode);
  BCAST_CHECK(sorted.Finalize().ok());
  return sorted;
}

SlotSequence PackLinearOrder(const IndexTree& tree, int num_channels,
                             const std::vector<NodeId>& order) {
  BCAST_CHECK_GE(num_channels, 1);
  BCAST_CHECK_EQ(order.size(), static_cast<size_t>(tree.num_nodes()));
  std::vector<int> placed_slot(static_cast<size_t>(tree.num_nodes()), -1);
  std::deque<NodeId> remaining(order.begin(), order.end());
  SlotSequence slots;
  while (!remaining.empty()) {
    int slot = static_cast<int>(slots.size());
    std::vector<NodeId> current;
    std::deque<NodeId> deferred;
    while (!remaining.empty() &&
           current.size() < static_cast<size_t>(num_channels)) {
      NodeId node = remaining.front();
      remaining.pop_front();
      NodeId parent = tree.parent(node);
      bool parent_ready =
          parent == kInvalidNode ||
          (placed_slot[static_cast<size_t>(parent)] >= 0 &&
           placed_slot[static_cast<size_t>(parent)] < slot);
      if (parent_ready) {
        placed_slot[static_cast<size_t>(node)] = slot;
        current.push_back(node);
      } else {
        deferred.push_back(node);
      }
    }
    BCAST_CHECK(!current.empty()) << "linear order is not topological";
    // Deferred nodes keep their relative order ahead of the untouched rest.
    for (size_t i = deferred.size(); i-- > 0;) remaining.push_front(deferred[i]);
    slots.push_back(std::move(current));
  }
  return slots;
}

// ---------------------------------------------------------------------------
// Index tree sorting (+ 1_To_k_BroadcastChannel)
// ---------------------------------------------------------------------------

namespace {

// The paper's 1_To_k_BroadcastChannel procedure: scan the level lists of the
// sorted tree top-down, allocate each list into one slot of up to k channels,
// and merge the unallocated remainder into the next level's list (keeping
// sequence order). After the last level the remaining list is dumped slot by
// slot. Nodes whose parent is not yet placed in a strictly earlier slot are
// deferred (the feasibility repair documented in the header).
SlotSequence OneToKAllocation(const IndexTree& tree, int num_channels,
                              const std::vector<NodeId>& sorted_preorder) {
  std::vector<int> seq(static_cast<size_t>(tree.num_nodes()), 0);
  for (size_t i = 0; i < sorted_preorder.size(); ++i) {
    seq[static_cast<size_t>(sorted_preorder[i])] = static_cast<int>(i);
  }
  // Level lists in sequence order.
  std::vector<std::vector<NodeId>> lists(static_cast<size_t>(tree.depth()));
  for (NodeId id : sorted_preorder) {
    lists[static_cast<size_t>(tree.node(id).level - 1)].push_back(id);
  }

  std::vector<int> placed_slot(static_cast<size_t>(tree.num_nodes()), -1);
  SlotSequence slots;
  auto fill_one_slot = [&](std::vector<NodeId>* list) {
    int slot = static_cast<int>(slots.size());
    std::vector<NodeId> current;
    std::vector<NodeId> leftover;
    size_t taken = 0;
    for (size_t i = 0; i < list->size(); ++i) {
      NodeId node = (*list)[i];
      NodeId parent = tree.parent(node);
      bool parent_ready =
          parent == kInvalidNode ||
          (placed_slot[static_cast<size_t>(parent)] >= 0 &&
           placed_slot[static_cast<size_t>(parent)] < slot);
      if (taken < static_cast<size_t>(num_channels) && parent_ready) {
        placed_slot[static_cast<size_t>(node)] = slot;
        current.push_back(node);
        ++taken;
      } else {
        leftover.push_back(node);
      }
    }
    BCAST_CHECK(!current.empty()) << "1_To_k made no progress";
    slots.push_back(std::move(current));
    *list = std::move(leftover);
  };

  std::vector<NodeId> carry;
  for (size_t level = 0; level < lists.size(); ++level) {
    // Merge the carried-over remainder into this level's list by sequence
    // number (both inputs are sequence-sorted).
    std::vector<NodeId> merged;
    merged.reserve(carry.size() + lists[level].size());
    std::merge(carry.begin(), carry.end(), lists[level].begin(),
               lists[level].end(), std::back_inserter(merged),
               [&](NodeId a, NodeId b) {
                 return seq[static_cast<size_t>(a)] < seq[static_cast<size_t>(b)];
               });
    fill_one_slot(&merged);
    carry = std::move(merged);
  }
  while (!carry.empty()) fill_one_slot(&carry);
  return slots;
}

}  // namespace

Result<AllocationResult> SortingHeuristic(const IndexTree& tree,
                                          int num_channels) {
  if (!tree.finalized()) {
    return FailedPreconditionError("index tree must be finalized");
  }
  if (num_channels < 1) return InvalidArgumentError("need at least one channel");

  obs::ScopedSpan span("heuristics.sort");
  std::vector<NodeId> order;
  {
    obs::ScopedTimer timer(obs::GetHistogram("heuristics.sort.order_ns"));
    order = SortedPreorder(tree);
  }
  AllocationResult result;
  if (num_channels == 1) {
    result.slots.reserve(order.size());
    for (NodeId id : order) result.slots.push_back({id});
  } else {
    obs::ScopedTimer timer(obs::GetHistogram("heuristics.sort.pack_ns"));
    result.slots = OneToKAllocation(tree, num_channels, order);
  }
  BCAST_RETURN_IF_ERROR(ValidateSlotSequence(tree, num_channels, result.slots));
  result.average_data_wait = SlotSequenceDataWait(tree, result.slots);
  result.provenance = PlanProvenance::kHeuristic;
  result.cost_upper_bound = result.average_data_wait;
  result.cost_lower_bound = DataWaitLowerBound(tree, num_channels);
  // Debug builds re-verify through the independent checker (including the
  // ADW recount the release-mode validation above does not do).
  BCAST_DCHECK_OK(AllocationVerifier(tree)
                      .VerifySlots(num_channels, result.slots,
                                   result.average_data_wait)
                      .ToStatus());
  return result;
}

// ---------------------------------------------------------------------------
// Index tree shrinking
// ---------------------------------------------------------------------------

namespace {

// Mutable view of a (sub)tree during node combination. Indices are the ids of
// the tree the view was created from; `expansion` maps a (pseudo) data node
// back to the linear sequence of *original* ids it stands for.
struct WorkTree {
  struct WorkNode {
    bool alive = true;
    bool is_data = false;
    double weight = 0.0;
    NodeId parent = kInvalidNode;
    std::vector<NodeId> children;
    std::vector<NodeId> expansion;  // original ids; data nodes only
    NodeId orig = kInvalidNode;     // original id of this node itself
  };
  std::vector<WorkNode> nodes;
  int alive_count = 0;
};

WorkTree MakeWorkTree(const IndexTree& tree, const std::vector<NodeId>& to_orig) {
  WorkTree wt;
  wt.nodes.resize(static_cast<size_t>(tree.num_nodes()));
  wt.alive_count = tree.num_nodes();
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    WorkTree::WorkNode& wn = wt.nodes[static_cast<size_t>(id)];
    wn.is_data = tree.is_data(id);
    wn.weight = tree.weight(id);
    wn.parent = tree.parent(id);
    wn.children = tree.children(id);
    wn.orig = to_orig[static_cast<size_t>(id)];
    if (wn.is_data) wn.expansion = {wn.orig};
  }
  return wt;
}

// Combines index nodes whose children are all data (lightest combined weight
// first) until at most `target` nodes remain. Always reaches the target:
// in the limit the whole tree collapses into one pseudo data node.
void CombineUntil(WorkTree* wt, int target) {
  while (wt->alive_count > target) {
    int best = -1;
    double best_weight = 0.0;
    for (size_t id = 0; id < wt->nodes.size(); ++id) {
      const WorkTree::WorkNode& wn = wt->nodes[id];
      if (!wn.alive || wn.is_data) continue;
      double sum = 0.0;
      bool all_data = true;
      for (NodeId c : wn.children) {
        const WorkTree::WorkNode& cn = wt->nodes[static_cast<size_t>(c)];
        if (!cn.is_data) {
          all_data = false;
          break;
        }
        sum += cn.weight;
      }
      if (!all_data) continue;
      if (best == -1 || sum < best_weight) {
        best = static_cast<int>(id);
        best_weight = sum;
      }
    }
    BCAST_CHECK_NE(best, -1) << "no combinable index node found";
    WorkTree::WorkNode& wn = wt->nodes[static_cast<size_t>(best)];
    // Restore order inside the combined node: the index node itself, then its
    // data children by descending weight.
    std::vector<NodeId> kids = wn.children;
    std::stable_sort(kids.begin(), kids.end(), [&](NodeId a, NodeId b) {
      return wt->nodes[static_cast<size_t>(a)].weight >
             wt->nodes[static_cast<size_t>(b)].weight;
    });
    std::vector<NodeId> expansion = {wn.orig};
    for (NodeId c : kids) {
      WorkTree::WorkNode& cn = wt->nodes[static_cast<size_t>(c)];
      expansion.insert(expansion.end(), cn.expansion.begin(), cn.expansion.end());
      cn.alive = false;
      --wt->alive_count;
    }
    wn.is_data = true;
    wn.weight = best_weight;
    wn.children.clear();
    wn.expansion = std::move(expansion);
  }
}

// Rebuilds an IndexTree from the alive nodes of a WorkTree. `expansions[i]`
// maps new data node i to its original-id sequence; `origs[i]` is the
// original id behind new node i.
void EmitWorkTree(const WorkTree& wt, int work_id, IndexTree* tree,
                  NodeId parent, std::vector<std::vector<NodeId>>* expansions) {
  const WorkTree::WorkNode& wn = wt.nodes[static_cast<size_t>(work_id)];
  BCAST_CHECK(wn.alive);
  if (wn.is_data) {
    tree->AddDataNode(parent, wn.weight, "p" + std::to_string(work_id));
    expansions->push_back(wn.expansion);
    return;
  }
  tree->AddIndexNode(parent, "i" + std::to_string(work_id));
  expansions->push_back({wn.orig});
  NodeId self = static_cast<NodeId>(expansions->size()) - 1;
  for (NodeId c : wn.children) {
    if (wt.nodes[static_cast<size_t>(c)].alive) {
      EmitWorkTree(wt, c, tree, self, expansions);
    }
  }
}

// Extracts the subtree rooted at `sub_root` into a standalone tree plus the
// new-id -> original-id map (composed through `to_orig`).
void ExtractSubtree(const IndexTree& tree, NodeId sub_root,
                    const std::vector<NodeId>& to_orig, IndexTree* out,
                    std::vector<NodeId>* out_to_orig, NodeId parent) {
  const TreeNode& n = tree.node(sub_root);
  if (n.kind == NodeKind::kData) {
    out->AddDataNode(parent, n.weight, n.label);
    out_to_orig->push_back(to_orig[static_cast<size_t>(sub_root)]);
    return;
  }
  out->AddIndexNode(parent, n.label);
  out_to_orig->push_back(to_orig[static_cast<size_t>(sub_root)]);
  NodeId self = static_cast<NodeId>(out_to_orig->size()) - 1;
  for (NodeId c : n.children) {
    ExtractSubtree(tree, c, to_orig, out, out_to_orig, self);
  }
}

// Solves `tree` (whose node i stands for original id to_orig[i]) into a
// feasible linear order of original ids.
Result<std::vector<NodeId>> ShrinkSolveOrder(const IndexTree& tree,
                                             const std::vector<NodeId>& to_orig,
                                             const ShrinkOptions& options,
                                             int num_channels) {
  const int limit = options.exact_size_limit;
  if (tree.num_nodes() <= limit) {
    // Exact single-channel order via the data-tree search.
    obs::ScopedTimer timer(obs::GetHistogram("heuristics.shrink.exact_ns"));
    DataTreeOptions dt_options;
    auto search = DataTreeSearch::Create(tree, dt_options);
    if (!search.ok()) return search.status();
    auto optimal = search->FindOptimal();
    if (!optimal.ok()) return optimal.status();
    std::vector<NodeId> order;
    order.reserve(static_cast<size_t>(tree.num_nodes()));
    for (const auto& slot : optimal->slots) {
      for (NodeId id : slot) order.push_back(to_orig[static_cast<size_t>(id)]);
    }
    return order;
  }

  if (options.strategy == ShrinkOptions::Strategy::kNodeCombination) {
    WorkTree wt = MakeWorkTree(tree, to_orig);
    {
      obs::ScopedTimer timer(obs::GetHistogram("heuristics.shrink.combine_ns"));
      CombineUntil(&wt, limit);
    }
    IndexTree combined;
    std::vector<std::vector<NodeId>> expansions;
    EmitWorkTree(wt, tree.root(), &combined, kInvalidNode, &expansions);
    BCAST_RETURN_IF_ERROR(combined.Finalize());
    DataTreeOptions dt_options;
    auto search = DataTreeSearch::Create(combined, dt_options);
    if (!search.ok()) return search.status();
    auto optimal = search->FindOptimal();
    if (!optimal.ok()) return optimal.status();
    std::vector<NodeId> order;
    for (const auto& slot : optimal->slots) {
      for (NodeId id : slot) {
        const auto& exp = expansions[static_cast<size_t>(id)];
        order.insert(order.end(), exp.begin(), exp.end());
      }
    }
    return order;
  }

  // Tree partitioning: solve each root subtree independently; merge in the
  // paper's sorted order.
  obs::GetCounter("heuristics.shrink.partitions").Increment();
  NodeId root = tree.root();
  if (tree.is_data(root)) {
    return std::vector<NodeId>{to_orig[static_cast<size_t>(root)]};
  }
  std::vector<NodeId> order = {to_orig[static_cast<size_t>(root)]};
  for (NodeId child : SortedChildren(tree, root)) {
    if (tree.is_data(child)) {
      order.push_back(to_orig[static_cast<size_t>(child)]);
      continue;
    }
    IndexTree sub;
    std::vector<NodeId> sub_to_orig;
    ExtractSubtree(tree, child, to_orig, &sub, &sub_to_orig, kInvalidNode);
    if (!(tree.node(child).subtree_weight > 0.0)) {
      // Nobody waits for an unweighted subtree (nor can it finalize alone):
      // its preorder, the extraction order, is as good as any.
      order.insert(order.end(), sub_to_orig.begin(), sub_to_orig.end());
      continue;
    }
    BCAST_RETURN_IF_ERROR(sub.Finalize());
    auto sub_order = ShrinkSolveOrder(sub, sub_to_orig, options, num_channels);
    if (!sub_order.ok()) return sub_order.status();
    order.insert(order.end(), sub_order->begin(), sub_order->end());
  }
  return order;
}

}  // namespace

Result<AllocationResult> ShrinkingHeuristic(const IndexTree& tree,
                                            int num_channels,
                                            const ShrinkOptions& options) {
  if (!tree.finalized()) {
    return FailedPreconditionError("index tree must be finalized");
  }
  if (num_channels < 1) return InvalidArgumentError("need at least one channel");
  if (options.exact_size_limit < 1 || options.exact_size_limit > 64) {
    return InvalidArgumentError("exact_size_limit must be in [1, 64]");
  }

  obs::ScopedSpan span("heuristics.shrink");
  obs::ScopedTimer total_timer(obs::GetHistogram("heuristics.shrink.total_ns"));
  std::vector<NodeId> identity(static_cast<size_t>(tree.num_nodes()));
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    identity[static_cast<size_t>(id)] = id;
  }
  auto order = ShrinkSolveOrder(tree, identity, options, num_channels);
  if (!order.ok()) return order.status();

  AllocationResult result;
  {
    obs::ScopedTimer timer(obs::GetHistogram("heuristics.shrink.pack_ns"));
    result.slots = PackLinearOrder(tree, num_channels, *order);
  }
  BCAST_RETURN_IF_ERROR(ValidateSlotSequence(tree, num_channels, result.slots));
  result.average_data_wait = SlotSequenceDataWait(tree, result.slots);
  result.provenance = PlanProvenance::kHeuristic;
  result.cost_upper_bound = result.average_data_wait;
  result.cost_lower_bound = DataWaitLowerBound(tree, num_channels);
  BCAST_DCHECK_OK(AllocationVerifier(tree)
                      .VerifySlots(num_channels, result.slots,
                                   result.average_data_wait)
                      .ToStatus());
  return result;
}

}  // namespace bcast
