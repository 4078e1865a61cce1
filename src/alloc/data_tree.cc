#include "alloc/data_tree.h"

#include <algorithm>
#include <limits>
#include <string>

#include "util/bits.h"
#include "util/check.h"

namespace bcast {

namespace {
uint64_t Bit(NodeId id) { return uint64_t{1} << id; }
}  // namespace

Result<DataTreeSearch> DataTreeSearch::Create(const IndexTree& tree,
                                              DataTreeOptions options) {
  if (!tree.finalized()) {
    return FailedPreconditionError("index tree must be finalized");
  }
  if (tree.num_nodes() > 64) {
    return InvalidArgumentError(
        "data-tree search supports at most 64 nodes, got " +
        std::to_string(tree.num_nodes()));
  }
  return DataTreeSearch(tree, options);
}

DataTreeSearch::DataTreeSearch(const IndexTree& tree, DataTreeOptions options)
    : tree_(tree), options_(options) {
  data_nodes_ = tree.DataNodes();
  ancestor_mask_.resize(static_cast<size_t>(tree.num_nodes()), 0);
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    uint64_t mask = 0;
    NodeId cur = tree.parent(id);
    while (cur != kInvalidNode) {
      mask |= Bit(cur);
      cur = tree.parent(cur);
    }
    ancestor_mask_[static_cast<size_t>(id)] = mask;
    if (tree.is_index(id)) {
      all_index_mask_ |= Bit(id);
    } else {
      all_data_mask_ |= Bit(id);
    }
  }
  data_by_weight_ = data_nodes_;
  std::sort(data_by_weight_.begin(), data_by_weight_.end(),
            [&](NodeId a, NodeId b) {
              if (tree_.weight(a) != tree_.weight(b)) {
                return tree_.weight(a) > tree_.weight(b);
              }
              return a < b;
            });
  // Sibling groups (data nodes sharing a parent), each sorted heaviest first:
  // under Lemma 3 only the first unchosen member of each group is eligible.
  std::vector<NodeId> group_of(static_cast<size_t>(tree.num_nodes()),
                               kInvalidNode);
  for (NodeId d : data_nodes_) {
    NodeId parent = tree.parent(d);
    NodeId key = parent == kInvalidNode ? d : parent;
    if (group_of[static_cast<size_t>(key)] == kInvalidNode) {
      group_of[static_cast<size_t>(key)] = static_cast<NodeId>(groups_.size());
      groups_.emplace_back();
    }
    groups_[static_cast<size_t>(group_of[static_cast<size_t>(key)])].push_back(d);
  }
  for (auto& group : groups_) {
    std::sort(group.begin(), group.end(), [&](NodeId a, NodeId b) {
      if (tree_.weight(a) != tree_.weight(b)) {
        return tree_.weight(a) > tree_.weight(b);
      }
      return a < b;
    });
  }
}

void DataTreeSearch::EligibleData(uint64_t chosen_data,
                                  std::vector<NodeId>* out) const {
  out->clear();
  if (!options_.lemma3_group_order) {
    for (NodeId d : data_nodes_) {
      if ((chosen_data & Bit(d)) == 0) out->push_back(d);
    }
    return;
  }
  // Lemma 3: each sibling group contributes exactly its heaviest unchosen
  // member (groups are presorted heaviest-first).
  for (const auto& group : groups_) {
    for (NodeId d : group) {
      if ((chosen_data & Bit(d)) == 0) {
        out->push_back(d);
        break;
      }
    }
  }
}

struct DataTreeSearch::Context {
  enum class Mode { kCount, kOptimize };
  Mode mode = Mode::kOptimize;
  uint64_t limit = 0;
  uint64_t count = 0;
  SearchStats stats;

  // Mutable path state.
  std::vector<NodeId> order;
  std::vector<uint64_t> nanc_masks;  // Nancestor of each chosen data node
  uint64_t chosen_data = 0;
  uint64_t cancestor = 0;  // index nodes already emitted
  int position = 0;        // buckets emitted so far
  double v = 0.0;          // accumulated weighted wait

  double best_v = std::numeric_limits<double>::infinity();
  std::vector<NodeId> best_order;
  std::vector<std::vector<NodeId>> eligible_scratch;  // per recursion depth
};

double DataTreeSearch::CompletionCost(uint64_t chosen_data, int position) const {
  // Remaining data in descending weight, one bucket each, starting right
  // after the current position. This is simultaneously (a) the exact cost of
  // the Property-1 forced tail when all index nodes are out, and (b) an
  // admissible lower bound otherwise (pending index nodes only push data
  // later). data_by_weight_ is presorted, so this is a single skip-scan.
  double cost = 0.0;
  int pos = position;
  for (NodeId d : data_by_weight_) {
    if ((chosen_data & Bit(d)) != 0) continue;
    cost += tree_.weight(d) * static_cast<double>(++pos);
  }
  return cost;
}

double DataTreeSearch::RemainingLowerBound(uint64_t chosen_data,
                                           int position) const {
  return CompletionCost(chosen_data, position);
}

Status DataTreeSearch::Dfs(Context* ctx) {
  ++ctx->stats.nodes_expanded;
  if (ctx->stats.nodes_expanded > options_.max_steps) {
    return ResourceExhaustedError("data-tree search exceeded " +
                                  std::to_string(options_.max_steps) + " steps");
  }

  if (ctx->chosen_data == all_data_mask_) {
    ++ctx->stats.paths_completed;
    if (ctx->mode == Context::Mode::kCount) {
      ++ctx->count;
      if (ctx->count > ctx->limit) {
        return ResourceExhaustedError("more than " + std::to_string(ctx->limit) +
                                      " data-tree paths");
      }
    } else if (ctx->v < ctx->best_v) {
      ctx->best_v = ctx->v;
      ctx->best_order = ctx->order;
      ++ctx->stats.incumbent_updates;
    }
    return Status::Ok();
  }

  // Property 1: all index nodes are out — the optimal tail is forced
  // (remaining data in descending weight). Property 4 is still checked at
  // the boundary between the last enumerated data node and the head of the
  // forced tail: this is exactly the paper's Section 3.3 example, where the
  // path ... C | E D is pruned because exchanging 4C with E pays off
  // (1·15 < 2·18). Within the tail all Nancestors are empty, so descending
  // weights satisfy Property 4 automatically.
  if (options_.property1 && ctx->cancestor == all_index_mask_) {
    if (options_.property4 && !ctx->order.empty() &&
        ctx->chosen_data != all_data_mask_) {
      NodeId head = kInvalidNode;  // heaviest remaining data node
      for (NodeId d : data_by_weight_) {
        if ((ctx->chosen_data & Bit(d)) == 0) {
          head = d;
          break;
        }
      }
      NodeId prev = ctx->order.back();
      uint64_t prev_excl =
          ctx->nanc_masks.back() & ~ancestor_mask_[static_cast<size_t>(head)];
      int excl = PopCount(prev_excl);
      // Nancestor(head) is empty here (all index nodes are out).
      if (tree_.weight(prev) <
          static_cast<double>(excl + 1) * tree_.weight(head)) {
        ++ctx->stats.nodes_pruned;
        ++ctx->stats.pruned_by_rule.lemma6;
        return Status::Ok();
      }
    }
    ++ctx->stats.pruned_by_rule.property1;
    ++ctx->stats.paths_completed;
    if (ctx->mode == Context::Mode::kCount) {
      ++ctx->count;
      if (ctx->count > ctx->limit) {
        return ResourceExhaustedError("more than " + std::to_string(ctx->limit) +
                                      " data-tree paths");
      }
    } else {
      double total = ctx->v + CompletionCost(ctx->chosen_data, ctx->position);
      if (total < ctx->best_v) {
        ctx->best_v = total;
        ++ctx->stats.incumbent_updates;
        ctx->best_order = ctx->order;
        for (NodeId d : data_by_weight_) {
          if ((ctx->chosen_data & Bit(d)) == 0) ctx->best_order.push_back(d);
        }
      }
    }
    return Status::Ok();
  }

  // Per-depth scratch buffer: avoids one heap allocation per expansion in
  // the hot counting loop (the m = 6 data tree has ~10^9 expansions). The
  // outer vector is pre-sized before the search starts, so taking a
  // reference is safe across the recursive calls below.
  size_t depth = ctx->order.size();
  BCAST_DCHECK(depth < ctx->eligible_scratch.size());
  std::vector<NodeId>& eligible = ctx->eligible_scratch[depth];
  EligibleData(ctx->chosen_data, &eligible);
  ctx->stats.nodes_generated += eligible.size();
  if (options_.lemma3_group_order) {
    // Lemma 3 suppresses every unchosen data node that is not its sibling
    // group's heaviest remaining member — eligible never contains them.
    const uint64_t unchosen = static_cast<uint64_t>(data_nodes_.size()) -
                              static_cast<uint64_t>(
                                  PopCount(ctx->chosen_data & all_data_mask_));
    ctx->stats.pruned_by_rule.lemma3 += unchosen - eligible.size();
  }

  if (ctx->mode == Context::Mode::kOptimize && eligible.size() > 1) {
    // Visit high-density picks first (weight per bucket including the index
    // nodes the pick drags in): good incumbents early make the completion
    // bound bite much sooner. Order does not affect which paths exist.
    std::sort(eligible.begin(), eligible.end(), [&](NodeId a, NodeId b) {
      double da = tree_.weight(a) /
                  static_cast<double>(PopCount(
                      ancestor_mask_[static_cast<size_t>(a)] & ~ctx->cancestor) +
                                      1);
      double db = tree_.weight(b) /
                  static_cast<double>(PopCount(
                      ancestor_mask_[static_cast<size_t>(b)] & ~ctx->cancestor) +
                                      1);
      if (da != db) return da > db;
      return a < b;
    });
  }

  for (NodeId d : eligible) {
    uint64_t nanc = ancestor_mask_[static_cast<size_t>(d)] & ~ctx->cancestor;
    int nanc_size = PopCount(nanc);

    // Property 4 (Lemma 6, 1-and-1 exchange): prune if swapping d with the
    // previous data node would strictly lower the cost.
    if (options_.property4 && !ctx->order.empty()) {
      NodeId prev = ctx->order.back();
      uint64_t prev_excl =
          ctx->nanc_masks.back() & ~ancestor_mask_[static_cast<size_t>(d)];
      int excl = PopCount(prev_excl);
      if (static_cast<double>(nanc_size + 1) * tree_.weight(prev) <
          static_cast<double>(excl + 1) * tree_.weight(d)) {
        ++ctx->stats.nodes_pruned;
        ++ctx->stats.pruned_by_rule.lemma6;
        continue;
      }
    }

    // Corollary 2 extension: 2-and-1 block exchange. Only applied when the
    // block introduces no ancestor of d — then the block and d's subsequence
    // are cleanly exchangeable (swapping leaves every Nancestor unchanged),
    // so Lemma 6 applies verbatim with A = the two-node block.
    if (options_.extended_exchange && ctx->order.size() >= 2) {
      uint64_t block_anc = ctx->nanc_masks[ctx->nanc_masks.size() - 1] |
                           ctx->nanc_masks[ctx->nanc_masks.size() - 2];
      if ((block_anc & ancestor_mask_[static_cast<size_t>(d)]) == 0) {
        NodeId a1 = ctx->order[ctx->order.size() - 1];
        NodeId a2 = ctx->order[ctx->order.size() - 2];
        double n_a = static_cast<double>(PopCount(block_anc) + 2);
        double w_a = tree_.weight(a1) + tree_.weight(a2);
        double n_b = static_cast<double>(nanc_size + 1);
        double w_b = tree_.weight(d);
        if (n_b * w_a < n_a * w_b) {
          ++ctx->stats.nodes_pruned;
          ++ctx->stats.pruned_by_rule.corollary2;
          continue;
        }
      }
    }

    int new_position = ctx->position + nanc_size + 1;
    double added = tree_.weight(d) * static_cast<double>(new_position);

    if (ctx->mode == Context::Mode::kOptimize &&
        ctx->v + added + RemainingLowerBound(ctx->chosen_data | Bit(d),
                                             new_position) >= ctx->best_v) {
      // Branch and bound on the admissible completion bound.
      ++ctx->stats.nodes_pruned;
      ++ctx->stats.bound_cutoffs;
      continue;
    }

    // Descend.
    ctx->order.push_back(d);
    ctx->nanc_masks.push_back(nanc);
    uint64_t saved_cancestor = ctx->cancestor;
    int saved_position = ctx->position;
    double saved_v = ctx->v;
    ctx->chosen_data |= Bit(d);
    ctx->cancestor |= nanc;
    ctx->position = new_position;
    ctx->v += added;

    Status status = Dfs(ctx);

    ctx->order.pop_back();
    ctx->nanc_masks.pop_back();
    ctx->chosen_data &= ~Bit(d);
    ctx->cancestor = saved_cancestor;
    ctx->position = saved_position;
    ctx->v = saved_v;
    BCAST_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

Result<uint64_t> DataTreeSearch::CountPaths(uint64_t limit) {
  Context ctx;
  ctx.mode = Context::Mode::kCount;
  ctx.limit = limit;
  ctx.eligible_scratch.resize(data_nodes_.size() + 1);
  BCAST_RETURN_IF_ERROR(Dfs(&ctx));
  return ctx.count;
}

Result<AllocationResult> DataTreeSearch::FindOptimal() {
  Context ctx;
  ctx.mode = Context::Mode::kOptimize;
  ctx.eligible_scratch.resize(data_nodes_.size() + 1);
  BCAST_RETURN_IF_ERROR(Dfs(&ctx));
  if (ctx.best_v == std::numeric_limits<double>::infinity()) {
    return InternalError("data-tree search found no feasible order");
  }
  AllocationResult result;
  result.slots = BroadcastFromDataOrder(tree_, ctx.best_order);
  result.average_data_wait = ctx.best_v / tree_.total_data_weight();
  result.stats = ctx.stats;
  result.cost_lower_bound = result.average_data_wait;
  result.cost_upper_bound = result.average_data_wait;
  EmitSearchStats("search.data_tree", result.stats);
  return result;
}

SlotSequence BroadcastFromDataOrder(const IndexTree& tree,
                                    const std::vector<NodeId>& order) {
  BCAST_CHECK_EQ(order.size(), static_cast<size_t>(tree.num_data_nodes()));
  std::vector<bool> emitted(static_cast<size_t>(tree.num_nodes()), false);
  SlotSequence slots;
  slots.reserve(static_cast<size_t>(tree.num_nodes()));
  for (NodeId d : order) {
    BCAST_CHECK(tree.is_data(d)) << "order contains a non-data node";
    BCAST_CHECK(!emitted[static_cast<size_t>(d)]) << "duplicate data node";
    for (NodeId anc : tree.AncestorsOf(d)) {
      if (!emitted[static_cast<size_t>(anc)]) {
        emitted[static_cast<size_t>(anc)] = true;
        slots.push_back({anc});
      }
    }
    emitted[static_cast<size_t>(d)] = true;
    slots.push_back({d});
  }
  return slots;
}

}  // namespace bcast
