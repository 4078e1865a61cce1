// The k-channel topological-tree search (Sections 3.1–3.2 of the paper).
//
// Algorithm 1 represents every feasible allocation as a root-to-leaf path of
// a *topological tree*: each tree node is a compound set of <= k index/data
// nodes sharing one broadcast slot, and the children of a topological node P
// are the k-component subsets of the candidate set
//     S = ∪_{y in PATH(P)} Children(y) − PATH(P).
//
// This class implements:
//  * exhaustive enumeration of that tree (no pruning) — the ground truth;
//  * the Appendix's reduced tree: Step 2 candidate pruning (Property 2 for
//    one channel, Property 3 characteristics 1/2/4 for k > 1), Step 3 subset
//    rules (heaviest-prefix data, child-of-P requirement) and Step 4 local
//    swap elimination (Lemmas 4/5 and the preorder-rank tie-break of
//    Section 3.2);
//  * the exact optimizer over the (possibly reduced) tree: depth-first
//    branch-and-bound on the paper's estimate E(X) = V(X) + U(X)
//    (Section 3.1), where U(X) is an admissible estimate of the remaining
//    data wait (by default the release-date bound: each remaining data
//    node waits for its unallocated ancestors, then the heaviest take the
//    free channels first; plus a capacity surcharge, since index nodes take
//    channels too), with a transposition memo that skips a state already
//    entered at no greater V (DESIGN.md §17);
//  * the paper's best-first search on the same E(X), kept as a second,
//    independent exact oracle for the tests.
//
// The search state is a bitmask of allocated nodes, so trees are limited to
// 64 nodes — the regime the paper itself targets with the exact search
// (Section 4.1 concludes the exact algorithm "is applicable only to a small
// size of the problem"; larger inputs go through src/alloc/heuristics.h).
//
// The expansion core is bitmask algebra end to end: per-node children masks,
// the data/index partition masks and the Lemma-5 preorder-rank masks are
// precomputed once at Create(), candidate sets are derived by OR/AND-NOT over
// them, and k-subset generation enumerates combinations directly over the
// 64-bit candidate mask. Data nodes also carry a weight rank, so "the
// heaviest data in this set" is a count-trailing-zeros over a rank mask.
//
// The optimizing DFS carries its expansion state down the path instead of
// rebuilding it from the allocated mask. Each frame inherits its candidate
// mask, (cand | children(S)) & ~S for the child that allocates S, and its
// release levels: the weight ranks of the unallocated data grouped by how
// many unallocated ancestors each has. A child's levels come from its
// parent's by mask algebra (the data below S's index nodes move one level
// down, S's own data drop out), and the release-date bound packs them slot
// by slot (DESIGN.md §17).
//
// The packing lets data use every channel, but the nodes sent in the next
// s + 1 slots are a parent-closed set of at most k(s + 1) unallocated nodes,
// index nodes included. Create() runs a tree knapsack once: for each node,
// the largest data weight of a parent-closed part of its subtree with at
// most m nodes, stored as the upper concave hull's unit increments. The
// k(s + 1) largest increments across a state's candidates bound the data
// weight those slots can carry, and wherever the packing sends more, the
// difference is added to U. A child the release-date part did not cut gets
// this surcharge slot by slot, from the prefix weights its packing
// recorded, stopping once E reaches the cut.
//
// U is summed in int64_t only, over the data weights floored to a fixed
// point: whole units for integer weights, so U is exact, and otherwise a
// power of two that puts the total weight just below 2^44 units. The
// optimum only grows with the weights, so U stays admissible.
//
// The neighbor lists and the level arrays live in
// per-depth scratch owned by the search object, and the memo in a table, all
// reused across calls, so once they have grown a call allocates the same
// whatever its expansion count (asserted by tests/alloc_free_search_test.cc).

#ifndef BCAST_ALLOC_TOPO_SEARCH_H_
#define BCAST_ALLOC_TOPO_SEARCH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/search_budget.h"
#include "tree/index_tree.h"
#include "util/status.h"

namespace bcast {

/// Transposition memo of the optimizing DFS (DESIGN.md §17). For each search
/// state (mask, last_set, depth) it keeps the least accumulated weighted wait
/// V with which the current search entered that state. Open addressing with
/// linear probing; the table is allocated on the first record, doubles at
/// load 1/2 and stops recording new states at `max_entries`.
/// Single-threaded.
class TranspositionMemo {
 public:
  static constexpr size_t kMaxEntries = size_t{1} << 21;

  /// `max_entries` is lowered only by tests; the default never needs tuning.
  explicit TranspositionMemo(size_t max_entries = kMaxEntries)
      : max_entries_(max_entries) {}

  /// Forgets every entry and keeps the table's memory for the next search.
  void Clear();

  /// True when the state was entered before at a V' <= v, so the caller
  /// skips it (stats->store_hits). Otherwise records v and returns false:
  /// store_inserts counts every record, store_dominated the records that
  /// replaced a weaker entry, and store_evictions the states left unrecorded
  /// because the table is at its entry cap (they are simply re-expanded).
  bool Dominated(uint64_t mask, uint64_t last_set, int depth, double v,
                 SearchStats* stats);

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t mask = 0;  // 0 = empty: every state's mask holds the root
    uint64_t last_set = 0;
    double v = 0.0;
    int depth = 0;
  };

  // Doubles the table (or allocates the first one) and rehashes.
  void Grow();

  size_t max_entries_;
  size_t size_ = 0;
  std::vector<Slot> slots_;  // power-of-two size, or empty before use
};

/// Expands a root-to-leaf compound-set path of the topological tree into a
/// slot sequence: slot 0 = {root}, slot s = the nodes of path[s-1] in
/// ascending id order.
SlotSequence CompoundPathToSlots(NodeId root, const std::vector<uint64_t>& path);

/// Exact search over the k-channel topological tree.
class TopoTreeSearch {
 public:
  /// Lower-bound estimate U(X) used by the optimizer.
  enum class BoundKind {
    /// The paper's U(X): every unallocated data node lands in the very next
    /// slot. Admissible but loose; kept as the ablation.
    kPaperNextSlot,
    /// Packed release-date bound with a capacity surcharge. A data node
    /// with r unallocated ancestors cannot go out before r slots from now,
    /// since each ancestor takes a slot of its own first. Slot by slot, the
    /// k heaviest data released by then and not yet placed take that slot's
    /// channels. This schedules unit jobs with release dates on k channels
    /// optimally (an exchange argument, DESIGN.md §17), so it is admissible
    /// and never below the plain packing that lets every node start at the
    /// next slot. Where the packing sends more data weight in the next
    /// s + 1 slots than any parent-closed set of k(s + 1) nodes holds, the
    /// excess is added too. Default.
    kPacked,
  };

  struct Options {
    int num_channels = 1;
    /// Appendix Steps 2–3: candidate-set pruning and subset-generation rules
    /// (Properties 2 and 3, Lemma 3).
    bool prune_candidates = false;
    /// Appendix Step 4: local-swap elimination (Lemmas 4/5; index-node order
    /// canonicalized by preorder rank per Section 3.2).
    bool prune_local_swap = false;
    BoundKind bound = BoundKind::kPacked;
    /// Safety valve: searches give up with RESOURCE_EXHAUSTED beyond this
    /// many topological-tree node expansions.
    uint64_t max_expansions = 200'000'000;
  };

  /// Errors if the tree exceeds 64 nodes or num_channels < 1.
  static Result<TopoTreeSearch> Create(const IndexTree& tree, Options options);

  /// Counts complete root-to-leaf paths of the (possibly reduced)
  /// topological tree — the "Total Paths" quantity of the paper's Table 1.
  /// RESOURCE_EXHAUSTED once the count exceeds `limit`.
  Result<uint64_t> CountPaths(uint64_t limit);

  /// Counts nodes of the (possibly reduced) topological tree, the size
  /// measure visible in Figs. 6/7 versus Figs. 9/10.
  Result<uint64_t> CountTreeNodes(uint64_t limit);

  /// Full enumeration of the (possibly reduced) tree returning the complete
  /// SearchStats — in particular the per-rule PruneCounts. Unlike the
  /// optimizer this walk never consults a bound, incumbent or memo, so its
  /// counts are a pure function of (tree, options). RESOURCE_EXHAUSTED
  /// beyond `limit` visited nodes.
  Result<SearchStats> ReducedTreeStats(uint64_t limit);

  /// Exact optimum by depth-first branch-and-bound. The returned path is the
  /// first minimal-cost path in the canonical preorder (siblings visited in
  /// SubsetLess order); the transposition memo never skips a state on it, so
  /// the result is the same with or without the memo (DESIGN.md §17).
  ///
  /// `seed_cost_v` optionally seeds the incumbent with the total weighted
  /// wait V (ADW x total data weight) of a known feasible allocation — e.g.
  /// a heuristic solution or the previous replan cycle's allocation. The
  /// seed is a pure upper bound: children are cut only when their admissible
  /// estimate *strictly exceeds* it, so equal-cost optima always survive and
  /// the returned slots/ADW are byte-identical to the unseeded search; only
  /// bound_cutoffs / nodes_expanded shrink. A seed below the true optimum
  /// makes every path a dead end (INTERNAL error) — callers add relative
  /// slack for float round-trips (see FindOptimalAllocation).
  ///
  /// `budget` (optional) makes the search *anytime*: when a budget stop
  /// condition fires mid-search, the best incumbent so far is returned with
  /// provenance kAnytime and [cost_lower_bound, cost_upper_bound] bracketing
  /// the true optimum (the lower bound folds the admissible estimates of
  /// every abandoned subtree). The DFS visits states in one canonical order,
  /// so a pure expansion-count budget is fully deterministic. A budget that
  /// fires before the first complete path yields RESOURCE_EXHAUSTED.
  Result<AllocationResult> FindOptimalDfs(
      double seed_cost_v = std::numeric_limits<double>::infinity(),
      const SearchBudget* budget = nullptr);

  /// Exact optimum by the paper's best-first strategy (priority queue on
  /// E(X) = V(X) + U(X), with dominance pruning on equal states). Not used
  /// by the planner: it is kept as an independent exact oracle that the
  /// tests hold the memoized DFS against.
  ///
  /// `seed_cost_v` keeps states with E > seed out of the open list (counted
  /// as bound_cutoffs). The cost of the result is unaffected; unlike the DFS
  /// the pop order among equal-(E, V) entries depends on the push sequence,
  /// so *which* of several equal-cost optima is returned may differ from the
  /// unseeded run (best-first never promised the DFS tie-break either).
  Result<AllocationResult> FindOptimalBestFirst(
      double seed_cost_v = std::numeric_limits<double>::infinity());

  /// Replaces the memo with an empty one capped at `max_entries` (tests of
  /// the cap only).
  void ResetMemoForTesting(size_t max_entries) {
    memo_ = TranspositionMemo(max_entries);
  }

  // --- expansion building blocks ------------------------------------------
  // Pure const reads of the finalized tree and the options.

  /// Sum of data weights inside a compound-set bitmask.
  double SetDataWeight(uint64_t set) const;

  /// Generates the next-neighbor compound sets of `last_set` given the
  /// allocated-set `mask`, applying the configured pruning. Appends submasks
  /// to `out` in generation order (callers impose the canonical order).
  void GenerateNeighbors(uint64_t mask, uint64_t last_set,
                         std::vector<uint64_t>* out, SearchStats* stats) const;

  /// Admissible lower bound on the *additional* weighted wait of data nodes
  /// not in `mask`, if the next slot index is `depth + 1` (1-based). `mask`
  /// is a search state: it holds the root and the parent of every node in it.
  /// This is the full U(X) of the configured BoundKind, the capacity
  /// surcharge included.
  double LowerBound(uint64_t mask, int depth) const;

  /// Test hook, not for library callers: the release-date part of
  /// LowerBound(mask | subset, depth + 1), without the capacity surcharge,
  /// for a neighbor `subset` of state `mask`. It is computed as the
  /// optimizing DFS computes it, from the release levels of `mask` moved on
  /// by `subset`.
  double ChildLowerBound(uint64_t mask, uint64_t subset, int depth) const;

  /// Fraction bits of the capacity hull's unit increments, which are in the
  /// bound's weight units: each increment is rounded up to a multiple of
  /// 2^-kHullFractionBits units.
  static constexpr int kHullFractionBits = 16;

  /// Canonical strict total order on sibling compound sets: data weight
  /// descending, then bitmask ascending. The optimizer visits neighbors in
  /// this order, which makes "the first optimum found" a well-defined
  /// allocation (the preorder tie-break of the determinism contract).
  bool SubsetLess(uint64_t a, uint64_t b) const;

  /// Bitmask with every tree node allocated (the goal test).
  uint64_t full_mask() const { return full_mask_; }

  const Options& options() const { return options_; }
  const IndexTree& tree() const { return tree_; }

 private:
  // One data node as the bound and the Step 2 filters read it.
  struct DataItem {
    NodeId id;
    uint64_t ancestors;  // its proper ancestors, as bits
    double weight;
  };
  // A generated neighbor with its data weight, computed once per expansion:
  // the canonical sort and the child's V both read it.
  struct Child {
    uint64_t set;
    double weight;
  };
  // SubsetLess on neighbors whose data weights are already known.
  static bool ChildBefore(const Child& a, const Child& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.set < b.set;
  }

  TopoTreeSearch(const IndexTree& tree, Options options);

  // Candidate set S for the allocated-set `mask`: nodes whose parent is
  // allocated but which are not, as a bitmask (union of the precomputed
  // children masks of the allocated nodes, minus the allocated nodes).
  uint64_t CandidateMask(uint64_t mask) const;
  // GenerateNeighbors from the candidate set `cand` of the state.
  void NeighborsOf(uint64_t cand, uint64_t last_set,
                   std::vector<uint64_t>* out, SearchStats* stats) const;

  // Weight ranks (bits into data_by_weight_) of the data nodes in `set`.
  uint64_t RankMask(uint64_t set) const;
  // The heaviest data node among nonempty weight ranks `ranks`.
  const DataItem& Heaviest(uint64_t ranks) const {
    return data_by_weight_[static_cast<size_t>(std::countr_zero(ranks))];
  }
  // E(X) = V + U for the cuts, deflated against rounding (rounding_slack_).
  double Estimate(double v, double bound) const;

  // Release levels: levels[r] holds the weight ranks of the unallocated data
  // with exactly r unallocated ancestors, for r < num_levels_, and
  // levels[num_levels_] their union.
  // From scratch, for the search state `mask`.
  void BuildLevels(uint64_t mask, uint64_t* levels) const;
  // The levels of state mask | subset from those of state mask.
  void ChildLevels(const uint64_t* levels, uint64_t subset,
                   uint64_t* child) const;
  // True when `levels` are BuildLevels(mask) (the DFS's debug check).
  bool LevelsMatch(uint64_t mask, const uint64_t* levels) const;
  // The release-date part of U in weight units, with the packing's prefix
  // weights: prefix[s] = G_s, the data weight placed in relative slots
  // 0 .. s, for s < num_slots; every datum is placed by slot num_slots - 1.
  // kPaperNextSlot records no prefix (num_slots = 0).
  struct Packing {
    int64_t bound;
    int num_slots;
    int64_t prefix[64];
  };
  // LowerBound without the capacity surcharge, for the state whose release
  // levels are `levels`, with next slot index depth + 1.
  void LevelsBound(const uint64_t* levels, int depth, Packing* packing) const;
  // A sum of weight units as a weight.
  double FromUnits(int64_t units) const {
    return static_cast<double>(units) * unit_;
  }
  // Builds the capacity hulls (hull_begin_, hull_).
  void BuildCapacityHulls();
  // The full U of a state: its `packing` (LevelsBound) plus the capacity
  // surcharge, given the weight ranks of its data candidates and its
  // candidate mask `cand`. The surcharge is added slot by slot, and the
  // first running total for which stop(U) holds is returned early; U only
  // grows, so stop(result) holds iff stop holds for the full bound.
  template <typename Stop>
  double AddSurcharge(const Packing& packing, uint64_t data_ranks,
                      uint64_t cand, Stop stop) const;
  // AddSurcharge with no early stop, from the state's release levels.
  double FullBound(const uint64_t* levels, uint64_t cand, int depth) const;
  // The optimizing DFS's release levels for its frame at `depth`.
  uint64_t* FrameLevels(int depth) {
    return frame_levels_.data() +
           static_cast<size_t>(depth) * static_cast<size_t>(num_levels_ + 1);
  }

  // Depth-first worker shared by counting and branch-and-bound.
  struct DfsContext;
  // `cand` is CandidateMask(mask), inherited from the parent frame.
  Status Dfs(DfsContext* ctx, uint64_t mask, uint64_t cand, uint64_t last_set,
             int depth, double v);
  // Dfs from the state that has only the root allocated.
  Status DfsFromRoot(DfsContext* ctx);

  const IndexTree& tree_;
  Options options_;
  uint64_t full_mask_ = 0;
  // Relative deflation of U in Estimate: 0 when every weight is an integer
  // and the sums stay exact, else 2^-44.
  double rounding_slack_ = 0.0;
  // Data nodes heaviest first (ties by ascending id).
  std::vector<DataItem> data_by_weight_;
  // The fixed point of U (see above): unit_weight_[r] is the weight of
  // rank r floored to a multiple of unit_, in units; 0 for the ranks
  // without a datum.
  double unit_ = 1.0;
  std::vector<int64_t> unit_weight_;

  // --- bitmask tables, fixed at construction --------------------------------
  uint64_t data_mask_ = 0;   // bit set iff the node is a data node
  uint64_t index_mask_ = 0;  // complement of data_mask_ within full_mask_
  std::vector<double> weight_;          // weight_[id] == tree_.weight(id)
  std::vector<uint64_t> rank_bit_;      // data: bit of its weight rank
  // Index node: the weight ranks of the data below it (0 for data nodes).
  std::vector<uint64_t> descendant_ranks_;
  // Data node: the weight ranks of the data strictly heavier than it.
  std::vector<uint64_t> heavier_ranks_;
  // The weight ranks of the node's data children.
  std::vector<uint64_t> child_ranks_;
  std::vector<uint64_t> children_mask_; // children of node id, as bits
  // higher_rank_mask_[x]: index nodes with preorder rank > rank(x) (the
  // Lemma 5 canonical-order test reduces to one AND against this).
  std::vector<uint64_t> higher_rank_mask_;

  // Per-depth neighbor arenas for the depth-first walks (optimize and the
  // counting modes). Depth d borrows entry d and its recursive call the next
  // one, so no frame aliases another. Each vector grows to its high-water
  // mark on first descent and is reused ever after, so steady-state DFS
  // expansion allocates nothing.
  std::vector<std::vector<uint64_t>> level_scratch_;
  std::vector<std::vector<Child>> level_children_;
  // Capacity hulls, fixed at construction (kPacked only). For a non-root
  // index node x, entries [hull_begin_[x], hull_begin_[x + 1]) are the unit
  // increments, descending, of the upper concave hull of m -> the largest
  // data weight of a parent-closed set of at most m nodes of x's subtree
  // holding x (m = 0 .. subtree size), then a -1 sentinel. The root (never
  // a candidate) and data nodes have none: a data candidate's one increment
  // is its weight. The increments are in weight units, in fixed point
  // (kHullFractionBits), rounded up.
  std::vector<int> hull_begin_;
  std::vector<int64_t> hull_;
  // Release levels per state: a datum has at most (tree height - 2)
  // unallocated ancestors, so num_levels_ = max(1, height - 1) levels. The
  // optimizing DFS keeps one array of them per depth, like level_scratch_.
  int num_levels_ = 1;
  std::vector<uint64_t> frame_levels_;
  // The optimizer's transposition memo, cleared per call and reused.
  TranspositionMemo memo_;
};

}  // namespace bcast

#endif  // BCAST_ALLOC_TOPO_SEARCH_H_
