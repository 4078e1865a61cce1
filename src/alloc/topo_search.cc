#include "alloc/topo_search.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>
#include <string>
#include <unordered_map>

#include "obs/obs.h"
#include "util/check.h"
#include "util/rng.h"
#include "verify/verifier.h"

namespace bcast {

namespace {

// Iterates the node ids set in a compound-set bitmask.
template <typename Fn>
void ForEachBit(uint64_t set, Fn fn) {
  while (set != 0) {
    int id = __builtin_ctzll(set);
    fn(static_cast<NodeId>(id));
    set &= set - 1;
  }
}

uint64_t Bit(NodeId id) { return uint64_t{1} << id; }

// Emits every k-element subset of items[0..n-1] as a bitmask, in the same
// lexicographic index order as util/combinatorics.h's ForEachKSubset (whole
// set once when k >= n). Pure stack state — the hot loop's replacement for
// the std::function/vector-based enumerator.
template <typename Fn>
void ForEachKSubsetMask(const NodeId* items, int n, int k, Fn emit) {
  if (n == 0) return;
  if (k >= n) {
    uint64_t sm = 0;
    for (int i = 0; i < n; ++i) sm |= Bit(items[i]);
    emit(sm);
    return;
  }
  int idx[64];
  for (int i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    uint64_t sm = 0;
    for (int i = 0; i < k; ++i) sm |= Bit(items[idx[i]]);
    emit(sm);
    // Advance to the next combination.
    int i = k;
    bool advanced = false;
    while (i-- > 0) {
      if (idx[i] != i + n - k) {
        ++idx[i];
        for (int j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) return;
  }
}

// Table size of the memo's first allocation (2 KiB): small enough that a
// search of a few dozen states pays next to nothing for it.
constexpr size_t kMemoInitialSlots = 64;

// SplitMix64 over the full (mask, last_set, depth) key, so linear probing
// does not cluster on the low-entropy depth field.
// bcast: hot
size_t MemoHash(uint64_t mask, uint64_t last_set, int depth) {
  return static_cast<size_t>(
      MixSeed(mask ^ (last_set * 0x9E3779B97F4A7C15ull) ^
              (static_cast<uint64_t>(static_cast<uint32_t>(depth)) << 32)));
}

}  // namespace

// ---------------------------------------------------------------------------
// Transposition memo
// ---------------------------------------------------------------------------

void TranspositionMemo::Clear() {
  if (size_ == 0) return;
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

void TranspositionMemo::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kMemoInitialSlots : 2 * old.size(), Slot{});
  const size_t index_mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.mask == 0) continue;
    size_t i = MemoHash(slot.mask, slot.last_set, slot.depth) & index_mask;
    while (slots_[i].mask != 0) i = (i + 1) & index_mask;
    slots_[i] = slot;
  }
}

// bcast: hot — one probe sequence per entered state.
bool TranspositionMemo::Dominated(uint64_t mask, uint64_t last_set, int depth,
                                  double v, SearchStats* stats) {
  // Keep the load at or below 1/2 while the cap still admits new entries.
  if (2 * (size_ + 1) > slots_.size() && size_ < max_entries_) Grow();
  if (slots_.empty()) {  // a zero cap records nothing
    ++stats->store_evictions;
    return false;
  }
  const size_t index_mask = slots_.size() - 1;
  size_t i = MemoHash(mask, last_set, depth) & index_mask;
  for (; slots_[i].mask != 0; i = (i + 1) & index_mask) {
    Slot& slot = slots_[i];
    if (slot.mask != mask || slot.last_set != last_set ||
        slot.depth != depth) {
      continue;
    }
    if (slot.v <= v) {
      ++stats->store_hits;
      return true;
    }
    slot.v = v;
    ++stats->store_inserts;
    ++stats->store_dominated;
    return false;
  }
  if (size_ >= max_entries_) {
    ++stats->store_evictions;
    return false;
  }
  slots_[i] = Slot{mask, last_set, v, depth};
  ++size_;
  ++stats->store_inserts;
  return false;
}

Result<TopoTreeSearch> TopoTreeSearch::Create(const IndexTree& tree,
                                              Options options) {
  if (!tree.finalized()) {
    return FailedPreconditionError("index tree must be finalized");
  }
  if (tree.num_nodes() > 64) {
    return InvalidArgumentError(
        "exact topological-tree search supports at most 64 nodes, got " +
        std::to_string(tree.num_nodes()) +
        " (use the heuristics for larger trees)");
  }
  if (options.num_channels < 1) {
    return InvalidArgumentError("need at least one broadcast channel");
  }
  return TopoTreeSearch(tree, options);
}

TopoTreeSearch::TopoTreeSearch(const IndexTree& tree, Options options)
    : tree_(tree), options_(options) {
  int n = tree.num_nodes();
  full_mask_ = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  data_by_weight_ = tree.DataNodes();
  std::sort(data_by_weight_.begin(), data_by_weight_.end(),
            [&](NodeId a, NodeId b) {
              if (tree_.weight(a) != tree_.weight(b)) {
                return tree_.weight(a) > tree_.weight(b);
              }
              return a < b;
            });

  weight_.resize(static_cast<size_t>(n));
  children_mask_.assign(static_cast<size_t>(n), 0);
  higher_rank_mask_.assign(static_cast<size_t>(n), 0);
  for (NodeId id = 0; id < n; ++id) {
    weight_[static_cast<size_t>(id)] = tree.weight(id);
    if (tree.is_data(id)) {
      data_mask_ |= Bit(id);
    } else {
      index_mask_ |= Bit(id);
    }
    for (NodeId child : tree.children(id)) {
      children_mask_[static_cast<size_t>(id)] |= Bit(child);
    }
  }
  for (NodeId x = 0; x < n; ++x) {
    if (!tree.is_index(x)) continue;
    uint64_t higher = 0;
    ForEachBit(index_mask_, [&](NodeId y) {
      if (tree.node(y).preorder_rank > tree.node(x).preorder_rank) {
        higher |= Bit(y);
      }
    });
    higher_rank_mask_[static_cast<size_t>(x)] = higher;
  }
  // One neighbor arena per possible DFS depth (a path has at most n compound
  // sets plus the root slot).
  level_scratch_.resize(static_cast<size_t>(n) + 2);
}

// bcast: hot — canonical sibling order, called per generated neighbor.
bool TopoTreeSearch::SubsetLess(uint64_t a, uint64_t b) const {
  const double wa = SetDataWeight(a);
  const double wb = SetDataWeight(b);
  if (wa != wb) return wa > wb;
  return a < b;
}

// bcast: hot — inner loop of expansion and bounding.
double TopoTreeSearch::SetDataWeight(uint64_t set) const {
  // Ascending-id accumulation, like the pre-bitmask implementation, so every
  // committed golden ADW double is reproduced bit for bit.
  double sum = 0.0;
  ForEachBit(set & data_mask_,
             [&](NodeId id) { sum += weight_[static_cast<size_t>(id)]; });
  return sum;
}

// bcast: hot — per-expansion candidate set, pure mask algebra.
uint64_t TopoTreeSearch::CandidateMask(uint64_t mask) const {
  uint64_t cand = 0;
  ForEachBit(mask,
             [&](NodeId id) { cand |= children_mask_[static_cast<size_t>(id)]; });
  return cand & ~mask;
}

void TopoTreeSearch::GenerateNeighbors(uint64_t mask, uint64_t last_set,
                                       std::vector<uint64_t>* out,
                                       SearchStats* stats) const {
  out->clear();
  uint64_t cand = CandidateMask(mask);
  if (cand == 0) return;

  const int k = options_.num_channels;

  // Properties of the previous compound node P, all as mask algebra: its
  // data members, the union of its children, its lightest data weight.
  const uint64_t p_data = last_set & data_mask_;
  const bool p_all_index = p_data == 0;
  double p_min_data_weight = std::numeric_limits<double>::infinity();
  ForEachBit(p_data, [&](NodeId id) {
    p_min_data_weight =
        std::min(p_min_data_weight, weight_[static_cast<size_t>(id)]);
  });
  uint64_t children_of_p = 0;
  ForEachBit(last_set, [&](NodeId id) {
    children_of_p |= children_mask_[static_cast<size_t>(id)];
  });

  // ---- Appendix Step 2: prune the candidate set. --------------------------
  if (options_.prune_candidates) {
    const int candidates_before = std::popcount(cand);
    if (p_all_index) {
      if (k == 1) {
        // Case 1(i): only children of p; among data children only the
        // heaviest (Property 2, characteristic 1). data_by_weight_ is sorted
        // weight-descending with ascending-id ties, so the first hit is the
        // canonical heaviest data child.
        uint64_t kept = cand & children_of_p & index_mask_;
        const uint64_t data_children = cand & children_of_p & data_mask_;
        if (data_children != 0) {
          for (NodeId d : data_by_weight_) {
            if ((data_children & Bit(d)) != 0) {
              kept |= Bit(d);
              break;
            }
          }
        }
        cand = kept;
      } else {
        // Case 1(ii): drop data that are not children of P; keep only the k
        // heaviest remaining data (Property 3, characteristics 1/2).
        uint64_t kept = cand & index_mask_;
        const uint64_t data_children = cand & children_of_p & data_mask_;
        int taken = 0;
        for (NodeId d : data_by_weight_) {
          if (taken == k) break;
          if ((data_children & Bit(d)) != 0) {
            kept |= Bit(d);
            ++taken;
          }
        }
        cand = kept;
      }
    } else {
      // Case 2: drop data nodes that are not children of P but are heavier
      // than some data node in P (Property 3, characteristic 4 / Property 2,
      // characteristic 2).
      uint64_t drop = 0;
      ForEachBit(cand & data_mask_ & ~children_of_p, [&](NodeId id) {
        if (weight_[static_cast<size_t>(id)] > p_min_data_weight) {
          drop |= Bit(id);
        }
      });
      cand &= ~drop;
    }
    const int dropped = candidates_before - std::popcount(cand);
    if (stats != nullptr && dropped > 0) {
      // Candidate-level drops (they never become subsets, so they are not
      // part of nodes_generated / nodes_pruned): Property 2 justifies the
      // single-channel characterizations, Property 3 the k > 1 ones.
      if (k == 1) {
        stats->pruned_by_rule.property2 += static_cast<uint64_t>(dropped);
      } else {
        stats->pruned_by_rule.property3 += static_cast<uint64_t>(dropped);
      }
    }
    if (cand == 0) return;  // dead end; a sibling branch survives
  }

  const int num_candidates = std::popcount(cand);
  const int t = std::min(k, num_candidates);

  // ---- Appendix Step 3: generate the k-component subsets. -----------------
  if (!options_.prune_candidates) {
    // Plain Algorithm 1: every t-subset, enumerated straight off the
    // candidate mask (ascending-id item order, lexicographic combinations —
    // the same sequence the vector-based enumerator produced).
    NodeId items[64];
    int n_items = 0;
    ForEachBit(cand, [&](NodeId id) { items[n_items++] = id; });
    ForEachKSubsetMask(items, n_items, t,
                       [&](uint64_t sm) { out->push_back(sm); });
  } else {
    // Rule (i): the n data nodes of a subset must be the n heaviest data
    // candidates, so data enter as a prefix of the weight-sorted list.
    NodeId data_sorted[64];
    int num_data = 0;
    const uint64_t cand_data = cand & data_mask_;
    if (cand_data != 0) {
      for (NodeId d : data_by_weight_) {
        if ((cand_data & Bit(d)) != 0) data_sorted[num_data++] = d;
      }
    }
    NodeId index_items[64];
    int num_index = 0;
    ForEachBit(cand & index_mask_,
               [&](NodeId id) { index_items[num_index++] = id; });

    int min_data = (num_data >= t && num_index == 0) ? t : 0;
    if (t > num_index) min_data = std::max(min_data, t - num_index);
    for (int d = min_data; d <= std::min(t, num_data); ++d) {
      uint64_t data_prefix = 0;
      for (int i = 0; i < d; ++i) data_prefix |= Bit(data_sorted[i]);
      const int want_index = t - d;
      if (want_index > num_index) continue;
      if (want_index == 0) {
        out->push_back(data_prefix);
        continue;
      }
      ForEachKSubsetMask(index_items, num_index, want_index, [&](uint64_t sm) {
        out->push_back(data_prefix | sm);
      });
    }
  }

  // nodes_generated counts every formed subset, including those the Step 3
  // rule (ii) and Step 4 filters below then eliminate, so for the
  // sequential DFS nodes_expanded == 1 + nodes_generated - nodes_pruned -
  // bound_cutoffs holds exactly (the differential harness asserts it).
  if (stats != nullptr) stats->nodes_generated += out->size();

  // Rule (ii): with an all-index P and k > 1, a subset must contain at
  // least one child of an element of P. In-place compaction keeps order.
  if (options_.prune_candidates && p_all_index && k != 1) {
    size_t write = 0;
    for (size_t read = 0; read < out->size(); ++read) {
      const uint64_t sm = (*out)[read];
      if ((sm & children_of_p) == 0) {
        if (stats != nullptr) {
          ++stats->nodes_pruned;
          ++stats->pruned_by_rule.lemma3;
        }
        continue;
      }
      (*out)[write++] = sm;
    }
    out->resize(write);
  }

  // ---- Appendix Step 4: local-swap elimination. ----------------------------
  if (options_.prune_local_swap) {
    const uint64_t p_index = last_set & index_mask_;
    if (p_index != 0) {
      size_t write = 0;
      for (size_t read = 0; read < out->size(); ++read) {
        const uint64_t subset = (*out)[read];
        bool pruned = false;
        bool data_swap = false;
        // x scans P's index members in ascending id, like the old loop; the
        // first x that admits a swap decides the lemma attribution.
        for (uint64_t xs = p_index; xs != 0 && !pruned; xs &= xs - 1) {
          const NodeId x = static_cast<NodeId>(__builtin_ctzll(xs));
          // x can move down only if none of its children sit in the subset.
          if ((subset & children_mask_[static_cast<size_t>(x)]) != 0) continue;
          // Swappable members of the subset: not children of P, and either a
          // data node (Step 4(i), Lemma 4: swapping it one slot earlier with
          // x is strictly better) or an index node of higher preorder rank
          // (Step 4(ii), Lemma 5: keep only the canonical order). The lowest
          // such bit is the first qualifying y of the old per-node scan.
          const uint64_t swappable =
              subset & ~children_of_p &
              (data_mask_ | higher_rank_mask_[static_cast<size_t>(x)]);
          if (swappable != 0) {
            pruned = true;
            data_swap = (swappable & (~swappable + 1) & data_mask_) != 0;
          }
        }
        if (pruned) {
          if (stats != nullptr) {
            ++stats->nodes_pruned;
            if (data_swap) {
              ++stats->pruned_by_rule.lemma4;
            } else {
              ++stats->pruned_by_rule.lemma5;
            }
          }
          continue;
        }
        (*out)[write++] = subset;
      }
      out->resize(write);
    }
  }
}

// bcast: hot — admissible bound, evaluated per child.
double TopoTreeSearch::LowerBound(uint64_t mask, int depth) const {
  const int k = options_.num_channels;
  double bound = 0.0;
  if (options_.bound == BoundKind::kPaperNextSlot) {
    for (NodeId d : data_by_weight_) {
      if ((mask & Bit(d)) == 0) {
        bound += tree_.weight(d) * static_cast<double>(depth + 1);
      }
    }
    return bound;
  }
  // Packed bound: heaviest remaining data first, k per slot.
  int slot = depth + 1;
  int in_slot = 0;
  for (NodeId d : data_by_weight_) {
    if ((mask & Bit(d)) != 0) continue;
    bound += tree_.weight(d) * static_cast<double>(slot);
    if (++in_slot == k) {
      ++slot;
      in_slot = 0;
    }
  }
  return bound;
}

// ---------------------------------------------------------------------------
// Depth-first traversal (counting and branch-and-bound)
// ---------------------------------------------------------------------------

struct TopoTreeSearch::DfsContext {
  enum class Mode { kCountPaths, kCountNodes, kOptimize };
  Mode mode = Mode::kOptimize;
  uint64_t limit = 0;  // for the counting modes
  uint64_t count = 0;
  SearchStats stats;
  double best_v = std::numeric_limits<double>::infinity();
  // Incumbent seed (a known-feasible total weighted wait). Children are cut
  // when est > seed_bound — strictly, so equal-cost optima survive and the
  // result stays byte-identical to the unseeded search.
  double seed_bound = std::numeric_limits<double>::infinity();
  // Anytime budget (kOptimize only; null = run to completion). Once a stop
  // condition fires, `stopped` latches and every remaining frame folds its
  // state's admissible estimate into frontier_lower instead of recursing, so
  // min(frontier_lower, best_v) is a valid lower bound on the true optimum.
  const SearchBudget* budget = nullptr;
  uint64_t deadline_abs_ns = 0;
  obs::Clock* clock = nullptr;
  bool stopped = false;
  double frontier_lower = std::numeric_limits<double>::infinity();
  std::vector<uint64_t> current_path;
  std::vector<uint64_t> best_path;
  // Per-depth neighbor arenas (the search object's level_scratch_). Depth d
  // borrows levels[d]; the recursive call at depth + 1 uses the next entry,
  // so no frame ever aliases another and nothing is copied between levels.
  std::vector<std::vector<uint64_t>>* levels = nullptr;
  // The search object's memo (kOptimize only; null in the counting modes, so
  // their counts never depend on it).
  TranspositionMemo* memo = nullptr;
};

Status TopoTreeSearch::Dfs(DfsContext* ctx, uint64_t mask, uint64_t last_set,
                           int depth, double v) {
  if (ctx->budget != nullptr) {
    // Soft budget checks run BEFORE the expansion is counted, so an
    // expansion budget of N expands exactly N states — the deterministic
    // contract tests rely on. The deadline is polled every 1024 expansions
    // (and on entry, so a pre-expired deadline stops immediately); the
    // cancel token every expansion.
    if (!ctx->stopped) {
      const SearchBudget& budget = *ctx->budget;
      if (budget.cancel != nullptr && budget.cancel->cancelled()) {
        ctx->stopped = true;
      } else if (budget.max_expansions > 0 &&
                 ctx->stats.nodes_expanded >= budget.max_expansions) {
        ctx->stopped = true;
      } else if (ctx->deadline_abs_ns != 0 &&
                 (ctx->stats.nodes_expanded & 1023) == 0 &&
                 ctx->clock->NowNanos() >= ctx->deadline_abs_ns) {
        ctx->stopped = true;
      }
    }
    if (ctx->stopped) {
      // Abandoned subtree: its cheapest completion costs at least the
      // admissible estimate V + U, folded into the reported lower bound.
      ctx->frontier_lower =
          std::min(ctx->frontier_lower, v + LowerBound(mask, depth));
      return Status::Ok();
    }
  }
  // Transposition memo: a non-goal state entered before at no greater V has
  // no completion cheaper or lex-earlier than that earlier visit's — skip it.
  if (ctx->memo != nullptr && mask != full_mask_ &&
      ctx->memo->Dominated(mask, last_set, depth, v, &ctx->stats)) {
    return Status::Ok();
  }
  ++ctx->stats.nodes_expanded;
  if (ctx->stats.nodes_expanded > options_.max_expansions) {
    return ResourceExhaustedError("topological-tree search exceeded " +
                                  std::to_string(options_.max_expansions) +
                                  " expansions");
  }
  if (ctx->mode == DfsContext::Mode::kCountNodes) {
    ++ctx->count;
    if (ctx->count > ctx->limit) {
      return ResourceExhaustedError("more than " + std::to_string(ctx->limit) +
                                    " topological-tree nodes");
    }
  }
  if (mask == full_mask_) {
    ++ctx->stats.paths_completed;
    if (ctx->mode == DfsContext::Mode::kCountPaths) {
      ++ctx->count;
      if (ctx->count > ctx->limit) {
        return ResourceExhaustedError("more than " + std::to_string(ctx->limit) +
                                      " topological-tree paths");
      }
    } else if (ctx->mode == DfsContext::Mode::kOptimize && v < ctx->best_v) {
      ctx->best_v = v;
      ctx->best_path = ctx->current_path;
      ++ctx->stats.incumbent_updates;
    }
    return Status::Ok();
  }

  std::vector<uint64_t>& neighbors = (*ctx->levels)[static_cast<size_t>(depth)];
  GenerateNeighbors(mask, last_set, &neighbors, &ctx->stats);
  if (ctx->mode == DfsContext::Mode::kOptimize) {
    // Visit promising neighbors first so the incumbent tightens quickly. The
    // canonical order (not just weight-descending) pins which equal-cost
    // optimum is found first, and is what makes the memo's V-only dominance
    // rule exact.
    std::sort(neighbors.begin(), neighbors.end(),
              [&](uint64_t a, uint64_t b) { return SubsetLess(a, b); });
  }
  for (size_t i = 0; i < neighbors.size(); ++i) {
    const uint64_t subset = neighbors[i];
    double nv = v + SetDataWeight(subset) * static_cast<double>(depth + 1);
    if (ctx->mode == DfsContext::Mode::kOptimize) {
      // Lemmas 1/2: V + U is a lower bound on any completion through subset.
      const double est = nv + LowerBound(mask | subset, depth + 1);
      if (est >= ctx->best_v || est > ctx->seed_bound) {
        ++ctx->stats.bound_cutoffs;
        continue;
      }
    }
    ctx->current_path.push_back(subset);
    Status status = Dfs(ctx, mask | subset, subset, depth + 1, nv);
    ctx->current_path.pop_back();
    BCAST_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

SlotSequence CompoundPathToSlots(NodeId root,
                                 const std::vector<uint64_t>& path) {
  SlotSequence slots;
  slots.push_back({root});
  for (uint64_t set : path) {
    std::vector<NodeId> slot;
    ForEachBit(set, [&](NodeId id) { slot.push_back(id); });
    slots.push_back(std::move(slot));
  }
  return slots;
}

Result<uint64_t> TopoTreeSearch::CountPaths(uint64_t limit) {
  DfsContext ctx;
  ctx.mode = DfsContext::Mode::kCountPaths;
  ctx.limit = limit;
  ctx.levels = &level_scratch_;
  NodeId root = tree_.root();
  double v0 = tree_.is_data(root) ? tree_.weight(root) : 0.0;
  BCAST_RETURN_IF_ERROR(Dfs(&ctx, Bit(root), Bit(root), 1, v0));
  return ctx.count;
}

Result<uint64_t> TopoTreeSearch::CountTreeNodes(uint64_t limit) {
  DfsContext ctx;
  ctx.mode = DfsContext::Mode::kCountNodes;
  ctx.limit = limit;
  ctx.levels = &level_scratch_;
  NodeId root = tree_.root();
  double v0 = tree_.is_data(root) ? tree_.weight(root) : 0.0;
  BCAST_RETURN_IF_ERROR(Dfs(&ctx, Bit(root), Bit(root), 1, v0));
  return ctx.count;
}

Result<SearchStats> TopoTreeSearch::ReducedTreeStats(uint64_t limit) {
  // Full enumeration of the reduced tree (no bound, no incumbent, no memo),
  // so the per-rule counts depend only on the tree and the options.
  DfsContext ctx;
  ctx.mode = DfsContext::Mode::kCountNodes;
  ctx.limit = limit;
  ctx.levels = &level_scratch_;
  NodeId root = tree_.root();
  double v0 = tree_.is_data(root) ? tree_.weight(root) : 0.0;
  BCAST_RETURN_IF_ERROR(Dfs(&ctx, Bit(root), Bit(root), 1, v0));
  return ctx.stats;
}

Result<AllocationResult> TopoTreeSearch::FindOptimalDfs(
    double seed_cost_v, const SearchBudget* budget) {
  DfsContext ctx;
  ctx.mode = DfsContext::Mode::kOptimize;
  ctx.seed_bound = seed_cost_v;
  ctx.levels = &level_scratch_;
  memo_.Clear();
  ctx.memo = &memo_;
  if (budget != nullptr && budget->active()) {
    ctx.budget = budget;
    ctx.clock =
        budget->clock != nullptr ? budget->clock : obs::MonotonicClock();
    if (budget->deadline_ns > 0) {
      ctx.deadline_abs_ns = ctx.clock->NowNanos() + budget->deadline_ns;
    }
  }
  const size_t max_path = static_cast<size_t>(tree_.num_nodes()) + 1;
  ctx.current_path.reserve(max_path);
  ctx.best_path.reserve(max_path);
  NodeId root = tree_.root();
  double v0 = tree_.is_data(root) ? tree_.weight(root) : 0.0;
  BCAST_RETURN_IF_ERROR(Dfs(&ctx, Bit(root), Bit(root), 1, v0));
  if (ctx.best_v == std::numeric_limits<double>::infinity()) {
    if (ctx.stopped) {
      return ResourceExhaustedError(
          "search budget exhausted before any feasible allocation was "
          "completed");
    }
    return InternalError("no feasible allocation found (pruning dead end)");
  }
  AllocationResult result;
  result.slots = CompoundPathToSlots(root, ctx.best_path);
  result.average_data_wait = ctx.best_v / tree_.total_data_weight();
  result.stats = ctx.stats;
  const double total_weight = tree_.total_data_weight();
  if (ctx.stopped) {
    result.provenance = PlanProvenance::kAnytime;
    result.cost_upper_bound = result.average_data_wait;
    // The optimum's path was completed, bound-cut (both imply best_v is
    // optimal) or abandoned — and then folded into frontier_lower.
    result.cost_lower_bound =
        std::min(ctx.frontier_lower, ctx.best_v) / total_weight;
    obs::GetCounter("search.topo_dfs.anytime_stops").Increment();
  } else {
    result.provenance = PlanProvenance::kExact;
    result.cost_lower_bound = result.average_data_wait;
    result.cost_upper_bound = result.average_data_wait;
  }
  EmitSearchStats("search.topo_dfs", result.stats);
  // Debug builds statically verify every search product: feasibility of the
  // slot sequence and the accumulated V against an independent recount.
  BCAST_DCHECK_OK(AllocationVerifier(tree_)
                      .VerifySlots(options_.num_channels, result.slots,
                                   result.average_data_wait)
                      .ToStatus());
  return result;
}

// ---------------------------------------------------------------------------
// Best-first search (the paper's Section 3.1 strategy)
// ---------------------------------------------------------------------------

Result<AllocationResult> TopoTreeSearch::FindOptimalBestFirst(
    double seed_cost_v) {
  struct ArenaNode {
    uint64_t mask;
    uint64_t last_set;
    double v;
    int depth;
    int parent;  // arena index, -1 for the root
  };
  struct QueueEntry {
    double e;  // E(X) = V(X) + U(X)
    double v;
    int arena_index;
    bool operator>(const QueueEntry& other) const {
      if (e != other.e) return e > other.e;
      return v > other.v;
    }
  };

  SearchStats stats;
  std::vector<ArenaNode> arena;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> open;

  NodeId root = tree_.root();
  double v0 = tree_.is_data(root) ? tree_.weight(root) : 0.0;
  arena.push_back({Bit(root), Bit(root), v0, 1, -1});
  open.push({v0 + LowerBound(Bit(root), 1), v0, 0});

  // Dominance: a state is skippable if an already-seen state with the same
  // key has both depth' <= depth and v' <= v. Without pruning the neighbor
  // set depends only on the allocated mask, so the key is the mask alone;
  // with pruning it also depends on the previous compound node.
  const bool pruning = options_.prune_candidates || options_.prune_local_swap;
  struct Seen {
    int depth;
    double v;
  };
  std::unordered_map<uint64_t, std::vector<Seen>> seen;
  auto state_key = [&](uint64_t mask, uint64_t last_set) -> uint64_t {
    if (!pruning) return mask;
    return mask ^ (last_set * uint64_t{0x9E3779B97F4A7C15});
  };
  auto dominated = [&](uint64_t key, int depth, double v) {
    auto it = seen.find(key);
    if (it == seen.end()) return false;
    for (const Seen& s : it->second) {
      if (s.depth <= depth && s.v <= v + 1e-12) return true;
    }
    return false;
  };

  std::vector<uint64_t> neighbors;
  while (!open.empty()) {
    QueueEntry top = open.top();
    open.pop();
    const ArenaNode node = arena[static_cast<size_t>(top.arena_index)];
    if (node.mask == full_mask_) {
      // First goal popped: optimal because E is a lower bound on total cost.
      std::vector<uint64_t> path;
      int cur = top.arena_index;
      while (arena[static_cast<size_t>(cur)].parent != -1) {
        path.push_back(arena[static_cast<size_t>(cur)].last_set);
        cur = arena[static_cast<size_t>(cur)].parent;
      }
      std::reverse(path.begin(), path.end());
      AllocationResult result;
      result.slots = CompoundPathToSlots(root, path);
      result.average_data_wait = node.v / tree_.total_data_weight();
      result.cost_lower_bound = result.average_data_wait;
      result.cost_upper_bound = result.average_data_wait;
      result.stats = stats;
      result.stats.paths_completed = 1;
      EmitSearchStats("search.topo_best_first", result.stats);
      BCAST_DCHECK_OK(AllocationVerifier(tree_)
                          .VerifySlots(options_.num_channels, result.slots,
                                       result.average_data_wait)
                          .ToStatus());
      return result;
    }
    uint64_t key = state_key(node.mask, node.last_set);
    if (dominated(key, node.depth, node.v)) {
      ++stats.dominance_skips;
      continue;
    }
    seen[key].push_back({node.depth, node.v});

    ++stats.nodes_expanded;
    if (stats.nodes_expanded > options_.max_expansions) {
      return ResourceExhaustedError("best-first search exceeded " +
                                    std::to_string(options_.max_expansions) +
                                    " expansions");
    }
    GenerateNeighbors(node.mask, node.last_set, &neighbors, &stats);
    for (uint64_t subset : neighbors) {
      uint64_t child_mask = node.mask | subset;
      int child_depth = node.depth + 1;
      double child_v =
          node.v + SetDataWeight(subset) * static_cast<double>(child_depth);
      uint64_t child_key = state_key(child_mask, subset);
      if (dominated(child_key, child_depth, child_v)) {
        ++stats.dominance_skips;
        continue;
      }
      const double child_e = child_v + LowerBound(child_mask, child_depth);
      if (child_e > seed_cost_v) {
        // The seed is the cost of a known feasible allocation, so no optimum
        // lies beyond it (strict >: equal-cost states stay in play).
        ++stats.bound_cutoffs;
        continue;
      }
      arena.push_back({child_mask, subset, child_v, child_depth, top.arena_index});
      open.push({child_e, child_v, static_cast<int>(arena.size()) - 1});
    }
  }
  return InternalError("best-first search exhausted the open list");
}

}  // namespace bcast
