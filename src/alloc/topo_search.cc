#include "alloc/topo_search.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>
#include <string>
#include <unordered_map>

#include "obs/obs.h"
#include "util/bits.h"
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

// Emits every k-element subset of the bits of `set` as a bitmask, in the
// same lexicographic ascending-id order as util/combinatorics.h's
// ForEachKSubset (the whole set once when k >= |set|). Pure stack state —
// the hot loop's replacement for the std::function/vector-based enumerator.
template <typename Fn>
void ForEachKSubsetMask(uint64_t set, int k, Fn emit) {
  if (set == 0) return;
  const int n = PopCount(set);
  if (k >= n) {
    emit(set);
    return;
  }
  if (k == 1) {
    for (; set != 0; set &= set - 1) emit(set & (~set + 1));
    return;
  }
  uint64_t items[64];
  int count = 0;
  ForEachBit(set, [&](NodeId id) { items[count++] = Bit(id); });
  int idx[64];
  for (int i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    uint64_t sm = 0;
    for (int i = 0; i < k; ++i) sm |= items[idx[i]];
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

// Table size of the memo's first allocation (16 KiB). A fresh search object
// grows its memo from here; starting at 64 slots, the four doublings and
// rehashes that a typical 1,000-state plan went through cost about 4% of
// its plan time.
constexpr size_t kMemoInitialSlots = 512;

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
  // Proper ancestors as bits, from the parent's: ids are topologically
  // ordered (a parent is created before its children).
  uint64_t ancestors[64];
  data_by_weight_.reserve(static_cast<size_t>(tree.num_data_nodes()));
  for (NodeId id = 0; id < n; ++id) {
    const TreeNode& node = tree.node(id);
    const size_t i = static_cast<size_t>(id);
    ancestors[i] = node.parent == kInvalidNode
                       ? 0
                       : ancestors[static_cast<size_t>(node.parent)] |
                             Bit(node.parent);
    if (node.kind != NodeKind::kData) continue;
    data_by_weight_.push_back({id, ancestors[i], node.weight});
    num_levels_ = std::max(num_levels_, node.level - 1);
  }
  std::sort(data_by_weight_.begin(), data_by_weight_.end(),
            [](const DataItem& a, const DataItem& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.id < b.id;
            });

  // Integer weights with a small total make every V and U an exact integer
  // sum, so E needs no rounding guard (see Estimate). No V or U exceeds
  // total weight x 128 slots, far below 2^53 under this cap.
  const double total = tree.total_data_weight();
  bool exact_sums = total <= 0x1p44;
  for (const DataItem& d : data_by_weight_) {
    exact_sums = exact_sums && d.weight == std::floor(d.weight);
  }
  rounding_slack_ = exact_sums ? 0.0 : 0x1p-44;
  if (!exact_sums) {
    int exponent = 0;
    std::frexp(total, &exponent);  // total < 2^exponent
    unit_ = std::ldexp(1.0, exponent - 44);
  }
  unit_weight_.assign(64, 0);
  rank_bit_.assign(static_cast<size_t>(n), 0);
  descendant_ranks_.assign(static_cast<size_t>(n), 0);
  heavier_ranks_.assign(static_cast<size_t>(n), 0);
  child_ranks_.assign(static_cast<size_t>(n), 0);
  uint64_t heavier = 0;  // ranks strictly heavier than rank `rank`
  for (size_t rank = 0; rank < data_by_weight_.size(); ++rank) {
    const DataItem& d = data_by_weight_[rank];
    if (rank > 0 && d.weight != data_by_weight_[rank - 1].weight) {
      heavier = (uint64_t{1} << rank) - 1;
    }
    heavier_ranks_[static_cast<size_t>(d.id)] = heavier;
    if (d.id != tree.root()) {
      child_ranks_[static_cast<size_t>(tree.parent(d.id))] |= uint64_t{1}
                                                            << rank;
    }
    rank_bit_[static_cast<size_t>(d.id)] = uint64_t{1} << rank;
    unit_weight_[rank] = static_cast<int64_t>(std::floor(d.weight / unit_));
    ForEachBit(d.ancestors, [&](NodeId a) {
      descendant_ranks_[static_cast<size_t>(a)] |= uint64_t{1} << rank;
    });
  }
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
  level_children_.resize(level_scratch_.size());
  frame_levels_.assign(
      level_scratch_.size() * static_cast<size_t>(num_levels_ + 1), 0);
  if (options_.bound == BoundKind::kPacked) BuildCapacityHulls();
}

void TopoTreeSearch::BuildCapacityHulls() {
  const int n = tree_.num_nodes();
  // profile[at[x] + m], m = 0 .. size(x): the largest data weight, in units,
  // of a parent-closed set of at most m nodes of x's subtree that holds x
  // (the empty set for m = 0). The subtree sizes plus one sum to at most
  // 64 * 65 / 2 + 64 (a chain). Every entry is at most 2^44.
  int64_t profile[64 * 65 / 2 + 64];
  int at[64];
  int size[64];  // nodes merged into x's profile so far
  NodeId parent[64];
  int total = 0;
  auto units = [&](NodeId x) {
    const uint64_t rank = rank_bit_[static_cast<size_t>(x)];
    return rank == 0 ? int64_t{0}
                     : unit_weight_[static_cast<size_t>(std::countr_zero(rank))];
  };
  for (NodeId x = 0; x < n; ++x) {
    const TreeNode& node = tree_.node(x);
    const size_t i = static_cast<size_t>(x);
    at[i] = total;
    total += node.subtree_size + 1;
    size[i] = 1;
    parent[i] = node.parent;
    profile[at[i]] = 0;
    profile[at[i] + 1] = units(x);
  }
  // Ids are topologically ordered, so a descending sweep finishes every
  // subtree before merging it into its parent's profile: the knapsack step
  // takes a nodes from the parent's part (the parent among them) and m - a
  // from the child's. Both are non-decreasing in m, so "at most" needs no
  // extra pass, and a descending m reads only entries not yet rewritten.
  // The root is never a candidate, so nothing is merged into it.
  const NodeId root = tree_.root();
  for (NodeId x = n; x-- > 0;) {
    const NodeId up = parent[static_cast<size_t>(x)];
    if (x == root || up == root) continue;
    const size_t p = static_cast<size_t>(up);
    int64_t* f = profile + at[p];
    if ((data_mask_ >> x & 1) != 0) {  // a leaf: take it or not
      const int64_t w = units(x);
      f[size[p] + 1] = f[size[p]] + w;
      for (int m = size[p]; m >= 2; --m) f[m] = std::max(f[m], f[m - 1] + w);
      ++size[p];
      continue;
    }
    const int g_size = size[static_cast<size_t>(x)];
    const int64_t* g = profile + at[static_cast<size_t>(x)];
    for (int m = size[p] + g_size; m >= 1; --m) {
      int64_t best = 0;
      for (int a = std::max(1, m - g_size); a <= std::min(size[p], m); ++a) {
        best = std::max(best, f[a] + g[m - a]);
      }
      f[m] = best;
    }
    size[p] += g_size;
  }

  // Index nodes that can be candidates: all but the root.
  const uint64_t runs = index_mask_ & ~Bit(root);
  hull_begin_.assign(static_cast<size_t>(n) + 1, 0);
  for (NodeId x = 0; x < n; ++x) {
    const size_t i = static_cast<size_t>(x);
    const int length = (runs >> x & 1) != 0 ? size[i] + 1 : 0;
    hull_begin_[i + 1] = hull_begin_[i] + length;
  }
  hull_.assign(static_cast<size_t>(hull_begin_.back()), -1);
  for (NodeId x = 0; x < n; ++x) {
    if ((runs >> x & 1) == 0) continue;
    const size_t i = static_cast<size_t>(x);
    const int64_t* f = profile + at[i];
    // Upper concave hull of the points (m, f[m]): drop a point on or below
    // the chord of its neighbors (the products stay below 2^51). Each run
    // ends in the -1 sentinel left by assign.
    int hull[65];
    int h = 0;
    for (int m = 0; m <= size[i]; ++m) {
      while (h >= 2) {
        const int a = hull[h - 2];
        const int b = hull[h - 1];
        if ((f[b] - f[a]) * (m - a) > (f[m] - f[a]) * (b - a)) break;
        --h;
      }
      hull[h++] = m;
    }
    const size_t begin = static_cast<size_t>(hull_begin_[i]);
    for (int j = 1; j < h; ++j) {
      const int run = hull[j] - hull[j - 1];
      const int64_t rise = f[hull[j]] - f[hull[j - 1]];
      const size_t from = begin + static_cast<size_t>(hull[j - 1]);
      const size_t to = begin + static_cast<size_t>(hull[j]);
      // Rounded up, so no capacity sum falls below the hull's.
      std::fill(hull_.begin() + from, hull_.begin() + to,
                ((rise << kHullFractionBits) + run - 1) / run);
    }
  }
}

bool TopoTreeSearch::SubsetLess(uint64_t a, uint64_t b) const {
  return ChildBefore(Child{a, SetDataWeight(a)}, Child{b, SetDataWeight(b)});
}

// bcast: hot — once per generated neighbor.
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
  NeighborsOf(CandidateMask(mask), last_set, out, stats);
}

void TopoTreeSearch::NeighborsOf(uint64_t cand, uint64_t last_set,
                                 std::vector<uint64_t>* out,
                                 SearchStats* stats) const {
  out->clear();
  if (cand == 0) return;

  const int k = options_.num_channels;

  // Properties of the previous compound node P, all as mask algebra: its
  // children (as nodes, and its data children as weight ranks) and the
  // data heavier than its lightest datum (as weight ranks).
  const bool p_all_index = (last_set & data_mask_) == 0;
  uint64_t children_of_p = 0;
  uint64_t p_child_ranks = 0;
  uint64_t heavier_than_p_min = 0;
  ForEachBit(last_set, [&](NodeId id) {
    children_of_p |= children_mask_[static_cast<size_t>(id)];
    p_child_ranks |= child_ranks_[static_cast<size_t>(id)];
    heavier_than_p_min |= heavier_ranks_[static_cast<size_t>(id)];
  });

  if (!options_.prune_candidates) {
    // Plain Algorithm 1: every t-subset, enumerated straight off the
    // candidate mask (ascending-id item order, lexicographic combinations —
    // the same sequence the vector-based enumerator produced).
    ForEachKSubsetMask(cand, k, [&](uint64_t sm) { out->push_back(sm); });
  } else {
    // The index candidates as nodes, the data candidates as weight ranks:
    // the lowest rank is the heaviest datum (ties by ascending id).
    uint64_t index = cand & index_mask_;
    uint64_t ranks = RankMask(cand);

    // ---- Appendix Step 2: prune the candidate set. ------------------------
    const int candidates_before = PopCount(index) + PopCount(ranks);
    if (p_all_index) {
      ranks &= p_child_ranks;
      if (k == 1) {
        // Case 1(i): only children of p; among data children only the
        // heaviest (Property 2, characteristic 1).
        index &= children_of_p;
        ranks &= ~ranks + 1;
      } else {
        // Case 1(ii): drop data that are not children of P; keep only the k
        // heaviest remaining data (Property 3, characteristics 1/2).
        uint64_t kept = 0;
        for (int taken = 0; ranks != 0 && taken < k; ++taken) {
          kept |= ranks & (~ranks + 1);
          ranks &= ranks - 1;
        }
        ranks = kept;
      }
    } else {
      // Case 2: drop data nodes that are not children of P but are heavier
      // than some data node in P (Property 3, characteristic 4 / Property 2,
      // characteristic 2).
      ranks &= ~(~p_child_ranks & heavier_than_p_min);
    }
    const int num_index = PopCount(index);
    const int num_data = PopCount(ranks);
    const int dropped = candidates_before - num_index - num_data;
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
    if (num_index + num_data == 0) return;  // dead end; a sibling survives

    // ---- Appendix Step 3: generate the k-component subsets. ---------------
    // Rule (i): the n data nodes of a subset must be the n heaviest data
    // candidates, so data enter as a prefix of the weight-sorted list.
    const int t = std::min(k, num_index + num_data);
    int min_data = (num_data >= t && num_index == 0) ? t : 0;
    if (t > num_index) min_data = std::max(min_data, t - num_index);
    uint64_t data_prefix = 0;  // the d heaviest data candidates
    for (int d = 0; d <= std::min(t, num_data); ++d) {
      if (d >= min_data) {
        const int want_index = t - d;
        if (want_index == 0) {
          out->push_back(data_prefix);
        } else if (want_index <= num_index) {
          ForEachKSubsetMask(index, want_index, [&](uint64_t sm) {
            out->push_back(data_prefix | sm);
          });
        }
      }
      if (ranks != 0) {
        data_prefix |= Bit(Heaviest(ranks).id);
        ranks &= ranks - 1;
      }
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

// E(X) = V + U with a one-sided rounding guard. V sums a path's slot costs
// in path order, U its own terms in weight order, so when the bound is
// tight the float V + U can land an ulp above the float V of the optimal
// completion; `est >= best_v` or `est > seed_bound` would then cut the
// canonical optimum. Every term is non-negative and a path has at most 64
// slots of at most 64 weights, so V and U each carry a relative error below
// 2^-45 (about 130 unit roundoffs). Taking rounding_slack_ = 2^-44 of V + U
// off U, never going below V, keeps E at or under the float V of every
// completion, and E >= V still holds, so a child with V >= best_v is cut
// without its bound. With exact sums the slack is 0 and E = V + U.
double TopoTreeSearch::Estimate(double v, double bound) const {
  return v + std::max(0.0, bound - rounding_slack_ * (v + bound));
}

uint64_t TopoTreeSearch::RankMask(uint64_t set) const {
  uint64_t ranks = 0;
  ForEachBit(set & data_mask_,
             [&](NodeId id) { ranks |= rank_bit_[static_cast<size_t>(id)]; });
  return ranks;
}

double TopoTreeSearch::LowerBound(uint64_t mask, int depth) const {
  uint64_t levels[64] = {};
  BuildLevels(mask, levels);
  return FullBound(levels, CandidateMask(mask), depth);
}

double TopoTreeSearch::ChildLowerBound(uint64_t mask, uint64_t subset,
                                       int depth) const {
  uint64_t levels[64] = {};
  uint64_t child[64] = {};
  BuildLevels(mask, levels);
  ChildLevels(levels, subset, child);
  Packing packing;
  LevelsBound(child, depth + 1, &packing);
  return FromUnits(packing.bound);
}

void TopoTreeSearch::BuildLevels(uint64_t mask, uint64_t* levels) const {
  std::fill(levels, levels + num_levels_, uint64_t{0});
  levels[num_levels_] = RankMask(full_mask_ & ~mask);
  for (uint64_t ranks = levels[num_levels_]; ranks != 0; ranks &= ranks - 1) {
    const int release = PopCount(Heaviest(ranks).ancestors & ~mask);
    levels[release] |= ranks & (~ranks + 1);
  }
}

// bcast: hot — once per child that survives the V cut.
void TopoTreeSearch::ChildLevels(const uint64_t* levels, uint64_t subset,
                                 uint64_t* child) const {
  // Every member of a neighbor is a candidate: its ancestors are allocated,
  // so its data sit at level 0, and the subtrees below its index members
  // are disjoint. Each datum below one of them loses exactly one
  // unallocated ancestor.
  uint64_t moved = 0;    // ranks of the data below S's index nodes
  uint64_t placed = 0;   // ranks of S's own data
  ForEachBit(subset, [&](NodeId id) {
    moved |= descendant_ranks_[static_cast<size_t>(id)];
    placed |= rank_bit_[static_cast<size_t>(id)];
  });
  const int top = num_levels_ - 1;
  for (int r = 0; r < top; ++r) {
    child[r] = (levels[r] & ~moved) | (levels[r + 1] & moved);
  }
  child[top] = levels[top] & ~moved;
  child[0] &= ~placed;
  child[num_levels_] = levels[num_levels_] & ~placed;
}

bool TopoTreeSearch::LevelsMatch(uint64_t mask, const uint64_t* levels) const {
  uint64_t rebuilt[64] = {};
  BuildLevels(mask, rebuilt);
  return std::equal(rebuilt, rebuilt + num_levels_ + 1, levels);
}

// bcast: hot — admissible bound, evaluated per child.
void TopoTreeSearch::LevelsBound(const uint64_t* levels, int depth,
                                 Packing* packing) const {
  uint64_t ranks = levels[num_levels_];  // every unallocated datum
  packing->num_slots = 0;
  if (options_.bound == BoundKind::kPaperNextSlot) {
    int64_t weight = 0;
    for (; ranks != 0; ranks &= ranks - 1) {
      weight += unit_weight_[static_cast<size_t>(std::countr_zero(ranks))];
    }
    packing->bound = weight * (depth + 1);
    return;
  }
  // Release-date bound: a remaining datum with r unallocated ancestors
  // cannot be sent before relative slot r, since each of them needs its own
  // earlier slot. Slot by slot, the k heaviest data released and not yet
  // placed take the slot; an exchange argument makes this exact for unit
  // jobs with release dates on k channels, and it places every datum where
  // the heaviest-first, earliest-free-slot greedy does (DESIGN.md §17).
  // Each slot makes k picks without a branch, a pick from an empty
  // `pending` taking rank 63: a tree of two or more nodes has an index
  // root, so at most 63 data exist and rank 63 weighs 0.
  constexpr uint64_t kNoRank = uint64_t{1} << 63;
  const int k = std::min(options_.num_channels, 63);
  const int top = num_levels_ - 1;
  uint64_t unreleased = ranks;
  uint64_t pending = 0;  // released, not yet placed
  int64_t bound = 0;
  int64_t placed = 0;
  int slot = 0;
  for (; (unreleased | pending) != 0; ++slot) {
    // At most 63 nodes are unallocated (the root never is). A datum placed
    // at `slot`, its r unallocated ancestors and one datum per full slot in
    // [r, slot) are distinct unallocated nodes, so slot <= 62. Past the top
    // level every datum is released, so the clamped read adds nothing.
    BCAST_DCHECK_LE(slot, 62);
    const uint64_t released = levels[std::min(slot, top)] & unreleased;
    pending |= released;
    unreleased &= ~released;
    int64_t slot_weight = 0;
    for (int c = 0; c < k; ++c) {
      slot_weight +=
          unit_weight_[static_cast<size_t>(std::countr_zero(pending | kNoRank))];
      pending &= pending - 1;
    }
    bound += slot_weight * (depth + 1 + slot);
    placed += slot_weight;
    packing->prefix[slot] = placed;
  }
  packing->num_slots = slot;
  packing->bound = bound;
}

// bcast: hot — once per child that survives the release-date cut.
template <typename Stop>
double TopoTreeSearch::AddSurcharge(const Packing& packing,
                                    uint64_t data_ranks, uint64_t cand,
                                    Stop stop) const {
  // With no index candidate every unallocated node is a data candidate, so
  // the capacity sums are the packing's own prefix sums: no surcharge.
  if (options_.bound != BoundKind::kPacked || (cand & index_mask_) == 0 ||
      packing.num_slots == 0) {
    return FromUnits(packing.bound);
  }
  // U = (depth + 1) W + sum over s >= 0 of (W - W_s), where W_s is the data
  // weight sent in relative slots 0 .. s. The packing's prefix weight G_s
  // bounds W_s (LevelsBound is the sum with W_s = G_s), and so does the
  // capacity C_s: the k(s + 1) largest hull increments across the
  // candidates, since the nodes of those slots are a parent-closed set of
  // at most k(s + 1) unallocated nodes. Each slot adds max(0, G_s - C_s).
  //
  // One descending run of increments per candidate, each ending in a -1
  // sentinel: the data candidates' weights in rank order, then each index
  // candidate's hull. The largest remaining increment is the largest head.
  int64_t data_run[65];
  int num_data = 0;
  for (; data_ranks != 0; data_ranks &= data_ranks - 1) {
    data_run[num_data++] =
        unit_weight_[static_cast<size_t>(std::countr_zero(data_ranks))]
        << kHullFractionBits;
  }
  data_run[num_data] = -1;
  const int64_t* heads[65];
  int num_heads = 0;
  heads[num_heads++] = data_run;
  for (uint64_t ids = cand & index_mask_; ids != 0; ids &= ids - 1) {
    heads[num_heads++] = hull_.data() + hull_begin_[static_cast<size_t>(
                                            std::countr_zero(ids))];
  }
  const int k = options_.num_channels;
  const int last = packing.num_slots - 1;
  int64_t capacity = 0;  // C_s, before rounding
  int64_t surcharge = 0;
  bool counted = false;  // every unallocated node is in C_s
  for (int slot = 0;; ++slot) {
    BCAST_DCHECK_LE(slot, 63);
    for (int c = 0; c < k; ++c) {
      const int64_t** from = &heads[0];
      int64_t best = *heads[0];
      for (int h = 1; h < num_heads; ++h) {
        const int64_t head = *heads[h];
        from = head > best ? &heads[h] : from;
        best = head > best ? head : best;
      }
      if (best < 0) {
        counted = true;
        break;
      }
      ++*from;
      capacity += best;
    }
    // `room` never falls below the largest data weight of such a set: every
    // increment was rounded up, and that weight is a whole number of units,
    // so the floor keeps it.
    const int64_t placed = packing.prefix[std::min(slot, last)];  // G_s
    const int64_t room = capacity >> kHullFractionBits;
    if (placed > room) {
      surcharge += placed - room;
      const double bound = FromUnits(packing.bound + surcharge);
      if (stop(bound)) return bound;
    } else if (slot >= last) {
      break;  // every later G_s is the whole weight, already within C_s
    }
    if (counted) break;  // room holds all the weight now
  }
  return FromUnits(packing.bound + surcharge);
}

double TopoTreeSearch::FullBound(const uint64_t* levels, uint64_t cand,
                                 int depth) const {
  Packing packing;
  LevelsBound(levels, depth, &packing);
  return AddSurcharge(packing, levels[0], cand, [](double) { return false; });
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
  // The search object's memo (kOptimize only; null in the counting modes, so
  // their counts never depend on it).
  TranspositionMemo* memo = nullptr;
};

Status TopoTreeSearch::Dfs(DfsContext* ctx, uint64_t mask, uint64_t cand,
                           uint64_t last_set, int depth, double v) {
  const bool optimize = ctx->mode == DfsContext::Mode::kOptimize;
  // The inherited expansion state equals the one rebuilt from the mask.
  BCAST_DCHECK_EQ(cand, CandidateMask(mask));
  BCAST_DCHECK(!optimize || LevelsMatch(mask, FrameLevels(depth)));
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
          std::min(ctx->frontier_lower,
                   Estimate(v, FullBound(FrameLevels(depth), cand, depth)));
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

  std::vector<uint64_t>& neighbors = level_scratch_[static_cast<size_t>(depth)];
  NeighborsOf(cand, last_set, &neighbors, &ctx->stats);
  std::vector<Child>& children = level_children_[static_cast<size_t>(depth)];
  children.clear();
  for (uint64_t set : neighbors) children.push_back({set, SetDataWeight(set)});
  if (optimize) {
    // Visit promising neighbors first so the incumbent tightens quickly. The
    // canonical order (not just weight-descending) pins which equal-cost
    // optimum is found first, and is what makes the memo's V-only dominance
    // rule exact. A handful of children: insertion sort.
    for (size_t i = 1; i < children.size(); ++i) {
      const Child child = children[i];
      size_t j = i;
      for (; j > 0 && ChildBefore(child, children[j - 1]); --j) {
        children[j] = children[j - 1];
      }
      children[j] = child;
    }
  }
  const uint64_t* levels = optimize ? FrameLevels(depth) : nullptr;
  uint64_t* child_levels = optimize ? FrameLevels(depth + 1) : nullptr;
  for (size_t i = 0; i < children.size(); ++i) {
    const uint64_t subset = children[i].set;
    double nv = v + children[i].weight * static_cast<double>(depth + 1);
    // Lemmas 1/2: V + U is a lower bound on any completion through subset.
    // E >= V, so a child whose V alone reaches the cut needs no bound, and
    // one whose release-date part reaches it needs no surcharge.
    if (optimize && (nv >= ctx->best_v || nv > ctx->seed_bound)) {
      ++ctx->stats.bound_cutoffs;
      continue;
    }
    uint64_t child_cand = cand;
    ForEachBit(subset, [&](NodeId id) {
      child_cand |= children_mask_[static_cast<size_t>(id)];
    });
    child_cand &= ~subset;
    if (optimize) {
      const auto cut = [&](double bound) {
        const double est = Estimate(nv, bound);
        return est >= ctx->best_v || est > ctx->seed_bound;
      };
      ChildLevels(levels, subset, child_levels);
      Packing packing;
      LevelsBound(child_levels, depth + 1, &packing);
      if (cut(FromUnits(packing.bound)) ||
          cut(AddSurcharge(packing, child_levels[0], child_cand, cut))) {
        ++ctx->stats.bound_cutoffs;
        continue;
      }
    }
    ctx->current_path.push_back(subset);
    Status status =
        Dfs(ctx, mask | subset, child_cand, subset, depth + 1, nv);
    ctx->current_path.pop_back();
    BCAST_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

Status TopoTreeSearch::DfsFromRoot(DfsContext* ctx) {
  const NodeId root = tree_.root();
  const uint64_t root_mask = Bit(root);
  if (ctx->mode == DfsContext::Mode::kOptimize) {
    BuildLevels(root_mask, FrameLevels(1));
  }
  const double v0 = tree_.is_data(root) ? tree_.weight(root) : 0.0;
  return Dfs(ctx, root_mask, CandidateMask(root_mask), root_mask, 1, v0);
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
  BCAST_RETURN_IF_ERROR(DfsFromRoot(&ctx));
  return ctx.count;
}

Result<uint64_t> TopoTreeSearch::CountTreeNodes(uint64_t limit) {
  DfsContext ctx;
  ctx.mode = DfsContext::Mode::kCountNodes;
  ctx.limit = limit;
  BCAST_RETURN_IF_ERROR(DfsFromRoot(&ctx));
  return ctx.count;
}

Result<SearchStats> TopoTreeSearch::ReducedTreeStats(uint64_t limit) {
  // Full enumeration of the reduced tree (no bound, no incumbent, no memo),
  // so the per-rule counts depend only on the tree and the options.
  DfsContext ctx;
  ctx.mode = DfsContext::Mode::kCountNodes;
  ctx.limit = limit;
  BCAST_RETURN_IF_ERROR(DfsFromRoot(&ctx));
  return ctx.stats;
}

Result<AllocationResult> TopoTreeSearch::FindOptimalDfs(
    double seed_cost_v, const SearchBudget* budget) {
  DfsContext ctx;
  ctx.mode = DfsContext::Mode::kOptimize;
  ctx.seed_bound = seed_cost_v;
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
  BCAST_RETURN_IF_ERROR(DfsFromRoot(&ctx));
  if (ctx.best_v == std::numeric_limits<double>::infinity()) {
    if (ctx.stopped) {
      return ResourceExhaustedError(
          "search budget exhausted before any feasible allocation was "
          "completed");
    }
    return InternalError("no feasible allocation found (pruning dead end)");
  }
  AllocationResult result;
  result.slots = CompoundPathToSlots(tree_.root(), ctx.best_path);
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
  open.push({Estimate(v0, LowerBound(Bit(root), 1)), v0, 0});

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
      const double child_e =
          Estimate(child_v, LowerBound(child_mask, child_depth));
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
