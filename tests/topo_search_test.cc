#include "alloc/topo_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/baselines.h"
#include "param_printer.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "workload/weights.h"

namespace bcast {
namespace {

TopoTreeSearch::Options MakeOptions(int channels, bool pruned) {
  TopoTreeSearch::Options options;
  options.num_channels = channels;
  options.prune_candidates = pruned;
  options.prune_local_swap = pruned;
  return options;
}

// --- exact counts on the paper's example tree -------------------------------

TEST(TopoSearchTest, PaperExampleUnprunedPathCountsAreLinearExtensions) {
  IndexTree tree = MakePaperExampleTree();
  // One channel: paths = topological sorts of the index tree = 9! times the
  // product of hook-length style constraints. Computed independently: the
  // number of linear extensions of this forest-shaped poset.
  auto search1 = TopoTreeSearch::Create(tree, MakeOptions(1, false));
  ASSERT_TRUE(search1.ok());
  auto count1 = search1->CountPaths(1'000'000);
  ASSERT_TRUE(count1.ok());
  // The unpruned 1-channel paths are exactly the linear extensions of the
  // index-tree poset; by the tree hook-length formula that is
  //   9! / (9·3·1·1·5·3·1·1·1) = 362880 / 405 = 896   (the Fig. 6 tree).
  EXPECT_EQ(*count1, 896u);
}

TEST(TopoSearchTest, PaperExamplePrunedTreeIsMuchSmaller) {
  IndexTree tree = MakePaperExampleTree();
  auto unpruned = TopoTreeSearch::Create(tree, MakeOptions(1, false));
  auto pruned = TopoTreeSearch::Create(tree, MakeOptions(1, true));
  ASSERT_TRUE(unpruned.ok());
  ASSERT_TRUE(pruned.ok());
  auto unpruned_nodes = unpruned->CountTreeNodes(10'000'000);
  auto pruned_nodes = pruned->CountTreeNodes(10'000'000);
  ASSERT_TRUE(unpruned_nodes.ok());
  ASSERT_TRUE(pruned_nodes.ok());
  EXPECT_LT(*pruned_nodes, *unpruned_nodes / 4)
      << "pruning should shrink the Fig. 6 tree toward the Fig. 9 tree";
}

TEST(TopoSearchTest, PaperExampleTwoChannelPrunedPaths) {
  // Fig. 10: after pruning, the 2-channel topological tree keeps only a
  // couple of paths (the paper draws 2).
  IndexTree tree = MakePaperExampleTree();
  auto pruned = TopoTreeSearch::Create(tree, MakeOptions(2, true));
  ASSERT_TRUE(pruned.ok());
  auto paths = pruned->CountPaths(1'000'000);
  ASSERT_TRUE(paths.ok());
  auto unpruned = TopoTreeSearch::Create(tree, MakeOptions(2, false));
  auto unpruned_paths = unpruned->CountPaths(1'000'000);
  ASSERT_TRUE(unpruned_paths.ok());
  EXPECT_LE(*paths, 8u);
  EXPECT_GT(*unpruned_paths, *paths * 4);
}

// --- optimality against exhaustive enumeration ------------------------------

struct RandomCase {
  uint64_t seed;
  int num_data;
  int max_fanout;
  int channels;
};

void PrintTo(const RandomCase& c, std::ostream* os) {
  PrintFieldBytes(c, os, &RandomCase::seed, &RandomCase::num_data,
                  &RandomCase::max_fanout, &RandomCase::channels);
}

class PrunedVsExhaustiveTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(PrunedVsExhaustiveTest, PrunedSearchKeepsAnOptimalPath) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed);
  IndexTree tree = MakeRandomTree(&rng, param.num_data, param.max_fanout,
                                  /*max_nodes=*/13);

  auto exhaustive =
      TopoTreeSearch::Create(tree, MakeOptions(param.channels, false));
  ASSERT_TRUE(exhaustive.ok());
  auto truth = exhaustive->FindOptimalDfs();
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();

  auto pruned = TopoTreeSearch::Create(tree, MakeOptions(param.channels, true));
  ASSERT_TRUE(pruned.ok());
  auto fast = pruned->FindOptimalDfs();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  EXPECT_NEAR(fast->average_data_wait, truth->average_data_wait, 1e-9)
      << "pruning must preserve at least one optimal path\n"
      << tree.ToString();
  EXPECT_TRUE(
      ValidateSlotSequence(tree, param.channels, fast->slots).ok());
}

TEST_P(PrunedVsExhaustiveTest, BestFirstMatchesDfs) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed);
  IndexTree tree = MakeRandomTree(&rng, param.num_data, param.max_fanout,
                                  /*max_nodes=*/13);

  auto search = TopoTreeSearch::Create(tree, MakeOptions(param.channels, false));
  ASSERT_TRUE(search.ok());
  auto dfs = search->FindOptimalDfs();
  auto best_first = search->FindOptimalBestFirst();
  ASSERT_TRUE(dfs.ok());
  ASSERT_TRUE(best_first.ok());
  EXPECT_NEAR(dfs->average_data_wait, best_first->average_data_wait, 1e-9);
  EXPECT_TRUE(
      ValidateSlotSequence(tree, param.channels, best_first->slots).ok());
}

TEST_P(PrunedVsExhaustiveTest, PaperBoundMatchesPackedBound) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed);
  IndexTree tree = MakeRandomTree(&rng, param.num_data, param.max_fanout,
                                  /*max_nodes=*/12);

  TopoTreeSearch::Options paper_bound = MakeOptions(param.channels, true);
  paper_bound.bound = TopoTreeSearch::BoundKind::kPaperNextSlot;
  auto a = TopoTreeSearch::Create(tree, paper_bound);
  auto b = TopoTreeSearch::Create(tree, MakeOptions(param.channels, true));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ra = a->FindOptimalDfs();
  auto rb = b->FindOptimalDfs();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_NEAR(ra->average_data_wait, rb->average_data_wait, 1e-9)
      << "the bound choice must not change the optimum, only the speed";
  EXPECT_GE(ra->stats.nodes_expanded, rb->stats.nodes_expanded)
      << "the packed bound should never expand more nodes";
}

std::vector<RandomCase> MakeRandomCases() {
  std::vector<RandomCase> cases;
  uint64_t seed = 1000;
  for (int channels = 1; channels <= 3; ++channels) {
    for (int num_data = 2; num_data <= 7; ++num_data) {
      for (int fanout = 2; fanout <= 4; ++fanout) {
        for (int rep = 0; rep < 3; ++rep) {
          cases.push_back({seed++, num_data, fanout, channels});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, PrunedVsExhaustiveTest,
                         ::testing::ValuesIn(MakeRandomCases()));

// --- Corollary 1 -------------------------------------------------------------

TEST(TopoSearchTest, WideChannelsMakeLevelAllocationOptimal) {
  Rng rng(77);
  for (int rep = 0; rep < 10; ++rep) {
    IndexTree tree = MakeRandomTree(&rng, 5, 3);
    if (tree.num_nodes() > 13) continue;
    int k = tree.max_level_width();
    auto level = LevelAllocation(tree, k);
    ASSERT_TRUE(level.ok());
    auto search = TopoTreeSearch::Create(tree, MakeOptions(k, false));
    ASSERT_TRUE(search.ok());
    auto optimal = search->FindOptimalDfs();
    ASSERT_TRUE(optimal.ok());
    EXPECT_NEAR(level->average_data_wait, optimal->average_data_wait, 1e-9)
        << "Corollary 1 violated for\n"
        << tree.ToString();
  }
}

// --- the release-date bound --------------------------------------------------

// Least additional weighted wait over every completion of the unpruned
// topological tree from (mask, depth), by exhaustive recursion that never
// consults a bound. The unpruned neighbors of a state depend on its mask
// only, so (mask, depth) is the memo key.
double OptimalCompletion(const TopoTreeSearch& search, uint64_t mask, int depth,
                         std::map<std::pair<uint64_t, int>, double>* memo) {
  if (mask == search.full_mask()) return 0.0;
  const auto key = std::make_pair(mask, depth);
  if (auto it = memo->find(key); it != memo->end()) return it->second;
  std::vector<uint64_t> neighbors;
  search.GenerateNeighbors(mask, /*last_set=*/0, &neighbors, nullptr);
  double best = std::numeric_limits<double>::infinity();
  for (uint64_t subset : neighbors) {
    double weight = 0.0;
    for (NodeId id = 0; id < search.tree().num_nodes(); ++id) {
      if ((subset >> id & 1) != 0) weight += search.tree().weight(id);
    }
    best = std::min(best, weight * static_cast<double>(depth + 1) +
                              OptimalCompletion(search, mask | subset,
                                                depth + 1, memo));
  }
  (*memo)[key] = best;
  return best;
}

TEST(ReleaseDateBoundTest, AdmissibleAndNeverBelowThePaperBound) {
  // The best-first oracle shares LowerBound, so it cannot catch a bound that
  // overestimates; this checks the bound against exhaustive completions.
  uint64_t states = 0;
  for (int channels = 2; channels <= 3; ++channels) {
    for (uint64_t seed = 0; seed < 100; ++seed) {
      Rng rng(77'000 + seed);
      IndexTree tree = MakeRandomTree(&rng, 6 + static_cast<int>(seed % 3),
                                      2 + static_cast<int>(seed % 3),
                                      /*max_nodes=*/12);
      TopoTreeSearch::Options paper_options = MakeOptions(channels, false);
      paper_options.bound = TopoTreeSearch::BoundKind::kPaperNextSlot;
      auto search = TopoTreeSearch::Create(tree, MakeOptions(channels, false));
      auto paper = TopoTreeSearch::Create(tree, paper_options);
      ASSERT_TRUE(search.ok() && paper.ok());
      std::map<std::pair<uint64_t, int>, double> completions;
      OptimalCompletion(*search, uint64_t{1} << tree.root(), 1, &completions);
      for (const auto& [key, completion] : completions) {
        const auto [mask, depth] = key;
        const double bound = search->LowerBound(mask, depth);
        EXPECT_LE(paper->LowerBound(mask, depth), bound)
            << "mask " << mask << " depth " << depth << "\n" << tree.ToString();
        EXPECT_LE(bound, completion * (1.0 + 1e-12))
            << "mask " << mask << " depth " << depth << "\n" << tree.ToString();
        ++states;
      }
    }
  }
  EXPECT_GT(states, 10'000u);
}

// Total weighted wait V of `slots`, accumulated exactly as the DFS does:
// slot s (root = 0) costs its data weight times s + 1, added in slot order.
double AccumulatedWait(const TopoTreeSearch& search,
                       const SlotSequence& slots) {
  double v = 0.0;
  for (size_t s = 0; s < slots.size(); ++s) {
    uint64_t set = 0;
    for (NodeId id : slots[s]) set |= uint64_t{1} << id;
    v += search.SetDataWeight(set) * static_cast<double>(s + 1);
  }
  return v;
}

TEST(ReleaseDateBoundTest, SeedEqualToTheOptimumKeepsTheUnseededSlots) {
  // Real-valued weights, so V and the bound round differently; a seed equal
  // to the optimum's own V, with no slack, must not cut the optimum.
  int trees = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(78'000 + seed);
    const IndexTree shape = MakeRandomTree(&rng, 6 + static_cast<int>(seed % 5),
                                           2 + static_cast<int>(seed % 2));
    IndexTree tree;
    for (NodeId id = 0; id < shape.num_nodes(); ++id) {
      if (shape.is_index(id)) {
        tree.AddIndexNode(shape.parent(id));
      } else {
        tree.AddDataNode(shape.parent(id), rng.UniformDouble(0.01, 1.0));
      }
    }
    ASSERT_TRUE(tree.Finalize().ok());
    const int channels = 2 + static_cast<int>(seed % 2);
    auto search = TopoTreeSearch::Create(tree, MakeOptions(channels, true));
    ASSERT_TRUE(search.ok());
    auto unseeded = search->FindOptimalDfs();
    ASSERT_TRUE(unseeded.ok()) << unseeded.status().ToString();
    const double optimum_v = AccumulatedWait(*search, unseeded->slots);
    EXPECT_EQ(optimum_v / tree.total_data_weight(),
              unseeded->average_data_wait);
    auto seeded = search->FindOptimalDfs(optimum_v);
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString() << "\n"
                             << tree.ToString();
    EXPECT_EQ(seeded->slots, unseeded->slots) << tree.ToString();
    EXPECT_EQ(seeded->average_data_wait, unseeded->average_data_wait);
    ++trees;
  }
  EXPECT_EQ(trees, 200);
}

TEST(ReleaseDateBoundTest, SixtyFourNodeTreesReachTheTopOfTheSlotWindow) {
  // A 63-index chain: at the root its one datum has 62 unallocated
  // ancestors, so the bound places it at relative slot 62, the window's top.
  const IndexTree chain = MakeChainTree(63, 5.0);
  ASSERT_EQ(chain.num_nodes(), 64);
  auto chain_search = TopoTreeSearch::Create(chain, MakeOptions(2, true));
  ASSERT_TRUE(chain_search.ok());
  EXPECT_EQ(chain_search->LowerBound(uint64_t{1} << chain.root(), 1),
            5.0 * 64);
  auto chain_plan = chain_search->FindOptimalDfs();
  ASSERT_TRUE(chain_plan.ok()) << chain_plan.status().ToString();
  EXPECT_EQ(chain_plan->average_data_wait, 64.0);

  // 63 data under the root on one channel: the lightest lands 62 slots
  // after the next one. Here the bound is the optimum itself.
  IndexTree star;
  const NodeId root = star.AddIndexNode(kInvalidNode);
  double expected_v = 0.0;
  for (int i = 0; i < 63; ++i) {
    star.AddDataNode(root, 100.0 - i);
    expected_v += (100.0 - i) * (2 + i);
  }
  ASSERT_TRUE(star.Finalize().ok());
  ASSERT_EQ(star.num_nodes(), 64);
  auto star_search = TopoTreeSearch::Create(star, MakeOptions(1, true));
  ASSERT_TRUE(star_search.ok());
  EXPECT_EQ(star_search->LowerBound(uint64_t{1} << root, 1), expected_v);
  auto star_plan = star_search->FindOptimalDfs();
  ASSERT_TRUE(star_plan.ok()) << star_plan.status().ToString();
  EXPECT_EQ(star_plan->average_data_wait,
            expected_v / star.total_data_weight());
}

// Reference: the item-wise form of the release-date bound. Heaviest first
// (ties by ascending id), each unallocated datum takes the earliest relative
// slot at or after its release (its unallocated ancestors) with a free
// channel, and the terms are summed in that order. `slot_weight`, if given,
// gets the data weight placed in each relative slot.
double ItemwiseGreedyBound(const IndexTree& tree, int k, uint64_t mask,
                           int depth,
                           std::vector<double>* slot_weight = nullptr) {
  struct Item {
    NodeId id;
    double weight;
    uint64_t ancestors;
  };
  std::vector<Item> items;
  for (NodeId d : tree.DataNodes()) {
    if ((mask >> d & 1) != 0) continue;
    uint64_t ancestors = 0;
    for (NodeId a : tree.AncestorsOf(d)) ancestors |= uint64_t{1} << a;
    items.push_back({d, tree.weight(d), ancestors});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.id < b.id;
  });
  double bound = 0.0;
  uint64_t full = 0;
  int taken[64] = {};
  for (const Item& d : items) {
    const int release = std::popcount(d.ancestors & ~mask);
    const int slot = release + std::countr_zero(~full >> release);
    bound += d.weight * static_cast<double>(depth + 1 + slot);
    if (++taken[slot] == k) full |= uint64_t{1} << slot;
    if (slot_weight != nullptr) {
      slot_weight->resize(std::max(slot_weight->size(), size_t{64}), 0.0);
      (*slot_weight)[static_cast<size_t>(slot)] += d.weight;
    }
  }
  return bound;
}

// The tree with every data weight floored to the bound's fixed point, for a
// tree whose weights are not all integers: multiples of the power of two
// that puts the total data weight just below 2^44 units. The bound over the
// real weights is the exact bound over these, and each sum of the item-wise
// form over them is exact: fewer than 2^51 units.
IndexTree FlooredToBoundUnits(const IndexTree& tree) {
  int exponent = 0;
  std::frexp(tree.total_data_weight(), &exponent);
  const double unit = std::ldexp(1.0, exponent - 44);
  IndexTree floored;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (tree.is_index(id)) {
      floored.AddIndexNode(tree.parent(id));
    } else {
      floored.AddDataNode(tree.parent(id),
                          std::floor(tree.weight(id) / unit) * unit);
    }
  }
  EXPECT_TRUE(floored.Finalize().ok());
  return floored;
}

// Walks the (possibly reduced) topological tree from (mask, last_set, depth)
// and checks ChildLowerBound against the item-wise bound over `reference`'s
// weights on every generated child of every state, visiting each state once
// and at most `max_states`.
void CheckChildBounds(const TopoTreeSearch& search, const IndexTree& reference,
                      uint64_t mask, uint64_t last_set, int depth,
                      std::set<std::tuple<uint64_t, uint64_t, int>>* seen,
                      size_t max_states, uint64_t* children_checked) {
  if (mask == search.full_mask() || seen->size() >= max_states) return;
  // Without pruning the neighbors depend on the mask alone.
  const bool pruned = search.options().prune_candidates;
  if (!seen->insert({mask, pruned ? last_set : 0, depth}).second) return;
  std::vector<uint64_t> neighbors;
  search.GenerateNeighbors(mask, last_set, &neighbors, nullptr);
  for (uint64_t subset : neighbors) {
    EXPECT_EQ(search.ChildLowerBound(mask, subset, depth),
              ItemwiseGreedyBound(reference, search.options().num_channels,
                                  mask | subset, depth + 1))
        << "mask " << mask << " subset " << subset << " depth " << depth
        << "\n"
        << search.tree().ToString();
    ++*children_checked;
  }
  for (uint64_t subset : neighbors) {
    CheckChildBounds(search, reference, mask | subset, subset, depth + 1,
                     seen, max_states, children_checked);
  }
}

// `reference` defaults to `tree`.
uint64_t CheckAllChildBounds(const IndexTree& tree, int channels, bool pruned,
                             size_t max_states,
                             const IndexTree* reference = nullptr) {
  auto search = TopoTreeSearch::Create(tree, MakeOptions(channels, pruned));
  EXPECT_TRUE(search.ok());
  if (!search.ok()) return 0;
  std::set<std::tuple<uint64_t, uint64_t, int>> seen;
  uint64_t checked = 0;
  const uint64_t root = uint64_t{1} << tree.root();
  CheckChildBounds(*search, reference != nullptr ? *reference : tree, root,
                   root, 1, &seen, max_states, &checked);
  return checked;
}

TEST(ReleaseDateBoundTest, InheritedBoundMatchesItemwiseGreedy) {
  uint64_t checked = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(79'000 + seed);
    // Integer weights (MakeRandomTree draws 1..100), then the same shape
    // with real weights, against the item-wise form over the weights the
    // bound floors them to.
    IndexTree integral =
        MakeRandomTree(&rng, 5 + static_cast<int>(seed % 4),
                       2 + static_cast<int>(seed % 3), /*max_nodes=*/11);
    IndexTree real;
    for (NodeId id = 0; id < integral.num_nodes(); ++id) {
      if (integral.is_index(id)) {
        real.AddIndexNode(integral.parent(id));
      } else {
        real.AddDataNode(integral.parent(id), rng.UniformDouble(0.01, 1.0));
      }
    }
    ASSERT_TRUE(real.Finalize().ok());
    const IndexTree floored = FlooredToBoundUnits(real);
    for (int channels = 2; channels <= 4; ++channels) {
      for (bool pruned : {false, true}) {
        checked += CheckAllChildBounds(integral, channels, pruned, 2'000);
        checked +=
            CheckAllChildBounds(real, channels, pruned, 2'000, &floored);
      }
    }
  }
  EXPECT_GT(checked, 150'000u);

  // The 64-node trees of SixtyFourNodeTreesReachTheTopOfTheSlotWindow: the
  // chain's datum starts 62 levels deep, the star's data fill 63 slots.
  const IndexTree chain = MakeChainTree(63, 5.0);
  IndexTree star;
  const NodeId root = star.AddIndexNode(kInvalidNode);
  for (int i = 0; i < 63; ++i) star.AddDataNode(root, 100.0 - i);
  ASSERT_TRUE(star.Finalize().ok());
  for (int channels = 1; channels <= 4; ++channels) {
    for (bool pruned : {false, true}) {
      EXPECT_EQ(CheckAllChildBounds(chain, channels, pruned, 100), 63u);
    }
    // Unpruned, the star has C(63, k) children per state; pruned, one.
    EXPECT_EQ(CheckAllChildBounds(star, channels, /*pruned=*/true, 100),
              static_cast<uint64_t>((63 + channels - 1) / channels));
  }
}

// --- the capacity surcharge --------------------------------------------------

// Calls fn(mask, depth) on every state of the (possibly reduced) topological
// tree below (mask, last_set, depth), each once, at most `max_states`.
template <typename Fn>
void ForEachState(const TopoTreeSearch& search, uint64_t mask,
                  uint64_t last_set, int depth,
                  std::set<std::tuple<uint64_t, uint64_t, int>>* seen,
                  size_t max_states, Fn fn) {
  if (seen->size() >= max_states) return;
  const bool pruned = search.options().prune_candidates;
  if (!seen->insert({mask, pruned ? last_set : 0, depth}).second) return;
  fn(mask, depth);
  if (mask == search.full_mask()) return;
  std::vector<uint64_t> neighbors;
  search.GenerateNeighbors(mask, last_set, &neighbors, nullptr);
  for (uint64_t subset : neighbors) {
    ForEachState(search, mask | subset, subset, depth + 1, seen, max_states,
                 fn);
  }
}

// best[m]: the largest data weight of a parent-closed set of at most m nodes
// of x's subtree that holds x (best[0] = 0), by a plain recursive knapsack.
std::vector<int64_t> SubtreeProfile(const IndexTree& tree, NodeId x) {
  std::vector<int64_t> best = {
      0, tree.is_data(x) ? static_cast<int64_t>(tree.weight(x)) : 0};
  for (NodeId child : tree.children(x)) {
    const std::vector<int64_t> sub = SubtreeProfile(tree, child);
    std::vector<int64_t> merged(best.size() + sub.size() - 1, 0);
    for (size_t a = 1; a < best.size(); ++a) {
      for (size_t b = 0; b < sub.size(); ++b) {
        merged[a + b] = std::max(merged[a + b], best[a] + sub[b]);
      }
    }
    for (size_t m = 1; m < merged.size(); ++m) {
      merged[m] = std::max(merged[m], merged[m - 1]);
    }
    best = merged;
  }
  return best;
}

// The upper concave hull of the points (m, profile[m]) as unit increments in
// the search's fixed point, each rounded up. Gift wrapping: from each hull
// point, the steepest chord, the farthest point on ties.
std::vector<int64_t> HullIncrements(const std::vector<int64_t>& profile) {
  std::vector<int64_t> units;
  const int64_t last = static_cast<int64_t>(profile.size()) - 1;
  for (int64_t a = 0; a < last;) {
    int64_t b = a + 1;
    for (int64_t c = a + 2; c <= last; ++c) {
      if ((profile[static_cast<size_t>(c)] - profile[static_cast<size_t>(a)]) *
              (b - a) >=
          (profile[static_cast<size_t>(b)] - profile[static_cast<size_t>(a)]) *
              (c - a)) {
        b = c;
      }
    }
    const int64_t rise =
        profile[static_cast<size_t>(b)] - profile[static_cast<size_t>(a)];
    const int64_t scaled = rise << TopoTreeSearch::kHullFractionBits;
    for (int64_t u = a; u < b; ++u) {
      units.push_back((scaled + (b - a) - 1) / (b - a));
    }
    a = b;
  }
  return units;
}

// The capacity surcharge of state `mask`, from scratch, for integer weights:
// the sum over relative slots s of max(0, G_s - C_s), with G_s the item-wise
// greedy's data weight in slots 0..s and C_s the k(s + 1) largest hull
// increments of the state's candidates, floored to an integer.
double ReferenceSurcharge(const IndexTree& tree, int k, uint64_t mask) {
  std::vector<double> slot_weight;
  ItemwiseGreedyBound(tree, k, mask, /*depth=*/0, &slot_weight);
  std::vector<int64_t> increments;
  for (NodeId x = 0; x < tree.num_nodes(); ++x) {
    if ((mask >> x & 1) != 0 || x == tree.root() ||
        (mask >> tree.parent(x) & 1) == 0) {
      continue;  // allocated, or not a candidate
    }
    for (int64_t unit : HullIncrements(SubtreeProfile(tree, x))) {
      increments.push_back(unit);
    }
  }
  std::sort(increments.rbegin(), increments.rend());
  int64_t surcharge = 0;
  int64_t placed = 0;
  int64_t capacity = 0;
  size_t taken = 0;
  for (int s = 0; s < 64; ++s) {
    if (!slot_weight.empty()) {
      placed += static_cast<int64_t>(slot_weight[static_cast<size_t>(s)]);
    }
    for (int c = 0; c < k && taken < increments.size(); ++c) {
      capacity += increments[taken++];
    }
    surcharge += std::max<int64_t>(
        0, placed - (capacity >> TopoTreeSearch::kHullFractionBits));
  }
  return static_cast<double>(surcharge);
}

TEST(CapacityBoundTest, SurchargeMatchesFromScratchReference) {
  uint64_t states = 0;
  uint64_t surcharged = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(80'000 + seed);
    const IndexTree tree =
        MakeRandomTree(&rng, 5 + static_cast<int>(seed % 5),
                       2 + static_cast<int>(seed % 3), /*max_nodes=*/14);
    for (int channels = 2; channels <= 4; ++channels) {
      for (bool pruned : {false, true}) {
        auto search =
            TopoTreeSearch::Create(tree, MakeOptions(channels, pruned));
        ASSERT_TRUE(search.ok());
        std::set<std::tuple<uint64_t, uint64_t, int>> seen;
        const uint64_t root = uint64_t{1} << tree.root();
        ForEachState(*search, root, root, 1, &seen, 2'000,
                     [&](uint64_t mask, int depth) {
                       const double release =
                           ItemwiseGreedyBound(tree, channels, mask, depth);
                       const double surcharge =
                           ReferenceSurcharge(tree, channels, mask);
                       EXPECT_EQ(search->LowerBound(mask, depth),
                                 release + surcharge)
                           << "mask " << mask << " depth " << depth << " k "
                           << channels << "\n"
                           << tree.ToString();
                       ++states;
                       if (surcharge > 0.0) ++surcharged;
                     });
      }
    }
  }
  EXPECT_GT(states, 50'000u);
  EXPECT_GT(surcharged, states / 10);
}

TEST(CapacityBoundTest, AdmissibleOnRealWeights) {
  // AdmissibleAndNeverBelowThePaperBound on real weights, where the
  // surcharge is summed in doubles under its rounding guard.
  uint64_t states = 0;
  uint64_t surcharged = 0;
  for (int channels = 2; channels <= 3; ++channels) {
    for (uint64_t seed = 0; seed < 100; ++seed) {
      Rng rng(81'000 + seed);
      const IndexTree shape =
          MakeRandomTree(&rng, 6 + static_cast<int>(seed % 3),
                         2 + static_cast<int>(seed % 3), /*max_nodes=*/12);
      IndexTree tree;
      for (NodeId id = 0; id < shape.num_nodes(); ++id) {
        if (shape.is_index(id)) {
          tree.AddIndexNode(shape.parent(id));
        } else {
          tree.AddDataNode(shape.parent(id), rng.UniformDouble(0.01, 1.0));
        }
      }
      ASSERT_TRUE(tree.Finalize().ok());
      TopoTreeSearch::Options paper_options = MakeOptions(channels, false);
      paper_options.bound = TopoTreeSearch::BoundKind::kPaperNextSlot;
      auto search = TopoTreeSearch::Create(tree, MakeOptions(channels, false));
      auto paper = TopoTreeSearch::Create(tree, paper_options);
      ASSERT_TRUE(search.ok() && paper.ok());
      std::map<std::pair<uint64_t, int>, double> completions;
      OptimalCompletion(*search, uint64_t{1} << tree.root(), 1, &completions);
      for (const auto& [key, completion] : completions) {
        const auto [mask, depth] = key;
        const double bound = search->LowerBound(mask, depth);
        EXPECT_LE(paper->LowerBound(mask, depth), bound)
            << "mask " << mask << " depth " << depth << "\n" << tree.ToString();
        EXPECT_LE(bound, completion * (1.0 + 1e-12))
            << "mask " << mask << " depth " << depth << "\n" << tree.ToString();
        if (bound > ItemwiseGreedyBound(tree, channels, mask, depth)) {
          ++surcharged;
        }
        ++states;
      }
    }
  }
  EXPECT_GT(states, 10'000u);
  EXPECT_GT(surcharged, states / 10);
}

TEST(CapacityBoundTest, BranchyRootBoundIsTighter) {
  // Four index nodes under the root, one datum of weight 10 under each, on
  // two channels. Every datum is released one slot after the next one, so
  // the release-date packing sends two in relative slot 1 and two in slot
  // 2: U = 20 * 3 + 20 * 4 = 140 at the root (next slot index 2). But each
  // index node's profile is 0, 0, 10 over 0, 1, 2 nodes, a hull of two
  // increments of 5, so three slots (six nodes) carry at most 30 of the 40
  // the packing has sent by relative slot 2: U = 140 + 10 = 150. The
  // optimum sends two index nodes, their data, the other two index nodes
  // and their data: 20 * 3 + 20 * 5 = 160.
  IndexTree tree;
  const NodeId root = tree.AddIndexNode(kInvalidNode);
  for (int i = 0; i < 4; ++i) tree.AddDataNode(tree.AddIndexNode(root), 10.0);
  ASSERT_TRUE(tree.Finalize().ok());
  const uint64_t root_mask = uint64_t{1} << root;
  EXPECT_EQ(ItemwiseGreedyBound(tree, 2, root_mask, 1), 140.0);
  for (bool pruned : {false, true}) {
    auto search = TopoTreeSearch::Create(tree, MakeOptions(2, pruned));
    ASSERT_TRUE(search.ok());
    EXPECT_EQ(search->LowerBound(root_mask, 1), 150.0);
    auto plan = search->FindOptimalDfs();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->average_data_wait * tree.total_data_weight(), 160.0);
  }
}

// --- transposition memo ------------------------------------------------------

// deep18_k3 of bench/bench_exact_search.cc: a near-chain tree whose search
// reaches the same states along many prefixes.
IndexTree DeepTree() {
  Rng rng(2);
  return MakeRandomTree(&rng, /*num_data=*/18, /*max_fanout=*/2);
}

TEST(TopoSearchTest, MemoGrowsPastItsFirstTableWithoutChangingTheResult) {
  IndexTree tree = DeepTree();
  auto memoized = TopoTreeSearch::Create(tree, MakeOptions(3, true));
  auto plain = TopoTreeSearch::Create(tree, MakeOptions(3, true));
  ASSERT_TRUE(memoized.ok() && plain.ok());
  plain->ResetMemoForTesting(0);  // records nothing: the plain DFS
  auto with_memo = memoized->FindOptimalDfs();
  auto without = plain->FindOptimalDfs();
  ASSERT_TRUE(with_memo.ok()) << with_memo.status().ToString();
  ASSERT_TRUE(without.ok()) << without.status().ToString();

  EXPECT_EQ(with_memo->slots, without->slots);
  EXPECT_EQ(with_memo->average_data_wait, without->average_data_wait);
  const SearchStats& stats = with_memo->stats;
  EXPECT_GT(stats.store_hits, 0u);
  EXPECT_EQ(stats.store_evictions, 0u);
  // Far more live entries than the first 64-slot table holds at load 1/2.
  EXPECT_GT(stats.store_inserts - stats.store_dominated, 1000u);
  EXPECT_LT(stats.nodes_expanded, without->stats.nodes_expanded);
  EXPECT_EQ(without->stats.store_hits, 0u);

  // A second call on the same object reuses the cleared table and repeats
  // the first call exactly.
  auto again = memoized->FindOptimalDfs();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->slots, with_memo->slots);
  EXPECT_EQ(again->stats.nodes_expanded, stats.nodes_expanded);
  EXPECT_EQ(again->stats.store_hits, stats.store_hits);
}

TEST(TopoSearchTest, MemoEntryCapLeavesTheResultUnchanged) {
  IndexTree tree = DeepTree();
  auto search = TopoTreeSearch::Create(tree, MakeOptions(3, true));
  ASSERT_TRUE(search.ok());
  auto reference = search->FindOptimalDfs();
  ASSERT_TRUE(reference.ok());

  search->ResetMemoForTesting(4);
  auto capped = search->FindOptimalDfs();
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_EQ(capped->slots, reference->slots);
  EXPECT_EQ(capped->average_data_wait, reference->average_data_wait);
  EXPECT_GT(capped->stats.store_evictions, 0u);
  EXPECT_LE(capped->stats.store_inserts - capped->stats.store_dominated, 4u);
  EXPECT_GT(capped->stats.nodes_expanded, reference->stats.nodes_expanded);
}

// --- error paths -------------------------------------------------------------

TEST(TopoSearchTest, RejectsOversizedTrees) {
  Rng rng(5);
  IndexTree tree = MakeRandomTree(&rng, 60, 4);  // > 64 nodes with index nodes
  if (tree.num_nodes() <= 64) GTEST_SKIP() << "tree happened to be small";
  auto search = TopoTreeSearch::Create(tree, MakeOptions(1, true));
  EXPECT_FALSE(search.ok());
  EXPECT_EQ(search.status().code(), StatusCode::kInvalidArgument);
}

TEST(TopoSearchTest, RejectsZeroChannels) {
  IndexTree tree = MakePaperExampleTree();
  auto search = TopoTreeSearch::Create(tree, MakeOptions(0, false));
  EXPECT_FALSE(search.ok());
}

TEST(TopoSearchTest, CountPathsHonorsLimit) {
  IndexTree tree = MakePaperExampleTree();
  auto search = TopoTreeSearch::Create(tree, MakeOptions(1, false));
  ASSERT_TRUE(search.ok());
  auto count = search->CountPaths(10);
  EXPECT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace bcast
