#include "alloc/data_tree.h"

#include <gtest/gtest.h>

#include "alloc/topo_search.h"
#include "param_printer.h"
#include "tree/builders.h"
#include "util/bigint.h"
#include "util/combinatorics.h"
#include "util/rng.h"
#include "workload/weights.h"

namespace bcast {
namespace {

DataTreeOptions NoPruning() {
  DataTreeOptions options;
  options.lemma3_group_order = false;
  options.property1 = false;
  options.property4 = false;
  return options;
}

DataTreeOptions OnlyLemma3() {
  DataTreeOptions options = NoPruning();
  options.lemma3_group_order = true;
  return options;
}

// --- path counting: the Table 1 accounting ----------------------------------

TEST(DataTreeTest, UnprunedPathsAreAllDataPermutations) {
  // Any data permutation is realizable on one channel with lazy ancestors,
  // so the unpruned data tree has |D|! paths.
  IndexTree tree = MakePaperExampleTree();  // 5 data nodes
  auto search = DataTreeSearch::Create(tree, NoPruning());
  ASSERT_TRUE(search.ok());
  auto count = search->CountPaths(1'000'000);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 120u);  // 5!
}

TEST(DataTreeTest, Lemma3CountMatchesMultinomialOnBalancedTrees) {
  // "By Property 2" in Table 1: (nm)!/(m!)^n for n groups of m data nodes.
  Rng rng(42);
  for (int m = 2; m <= 3; ++m) {
    std::vector<double> weights =
        UniformWeights(&rng, m * m, 1.0, 100.0);
    auto tree = MakeFullBalancedTree(m, 3, weights);
    ASSERT_TRUE(tree.ok());
    auto search = DataTreeSearch::Create(*tree, OnlyLemma3());
    ASSERT_TRUE(search.ok());
    auto count = search->CountPaths(10'000'000);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, BigUint::Multinomial(static_cast<uint64_t>(m),
                                           static_cast<uint64_t>(m))
                          .ToU64())
        << "m = " << m;
  }
}

TEST(DataTreeTest, EachPruningLevelShrinksThePathCount) {
  Rng rng(7);
  std::vector<double> weights = UniformWeights(&rng, 9, 1.0, 100.0);
  auto tree = MakeFullBalancedTree(3, 3, weights);
  ASSERT_TRUE(tree.ok());

  auto count_with = [&](DataTreeOptions options) -> uint64_t {
    auto search = DataTreeSearch::Create(*tree, options);
    EXPECT_TRUE(search.ok());
    auto count = search->CountPaths(100'000'000);
    EXPECT_TRUE(count.ok());
    return count.ok() ? *count : 0;
  };

  uint64_t p2 = count_with(OnlyLemma3());
  DataTreeOptions p12 = OnlyLemma3();
  p12.property1 = true;
  uint64_t p12_count = count_with(p12);
  DataTreeOptions p124 = p12;
  p124.property4 = true;
  uint64_t p124_count = count_with(p124);

  EXPECT_EQ(p2, 1680u);  // 9!/(3!)^3
  EXPECT_LT(p12_count, p2);
  EXPECT_LT(p124_count, p12_count);
  EXPECT_GE(p124_count, 1u);
}

TEST(DataTreeTest, PaperExamplePrunesTheCEOrder) {
  // Section 3.3's worked pruning: the order C-then-E is pruned by Property 4
  // (1×15 >= 2×18 fails). Applying that check uniformly — including at the
  // boundary of every Property-1 forced tail, exactly as in the paper's C/E
  // walkthrough — leaves a single surviving path on this example: the optimal
  // order A B E C D (broadcast 1 2 A B 3 E 4 C D). The paper's Fig. 11 keeps
  // 3 paths because it does not re-check the pairs inside collapsed tails;
  // both variants retain the optimum (certified against exhaustive search in
  // DataTreeOptimalityTest).
  IndexTree tree = MakePaperExampleTree();
  DataTreeOptions options;  // all paper prunings on
  auto search = DataTreeSearch::Create(tree, options);
  ASSERT_TRUE(search.ok());
  auto count = search->CountPaths(1'000);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);

  auto optimal = DataTreeSearch::Create(tree, options)->FindOptimal();
  ASSERT_TRUE(optimal.ok());
  EXPECT_NEAR(optimal->average_data_wait, 391.0 / 70.0, 1e-9);
}

// --- optimality --------------------------------------------------------------

struct DataTreeCase {
  uint64_t seed;
  int num_data;
  int max_fanout;
};

void PrintTo(const DataTreeCase& c, std::ostream* os) {
  PrintFieldBytes(c, os, &DataTreeCase::seed, &DataTreeCase::num_data,
                  &DataTreeCase::max_fanout);
}

class DataTreeOptimalityTest : public ::testing::TestWithParam<DataTreeCase> {};

TEST_P(DataTreeOptimalityTest, MatchesExhaustiveTopologicalSearch) {
  const DataTreeCase& param = GetParam();
  Rng rng(param.seed);
  IndexTree tree = MakeRandomTree(&rng, param.num_data, param.max_fanout,
                                  /*max_nodes=*/12);

  TopoTreeSearch::Options topo_options;
  topo_options.num_channels = 1;
  auto exhaustive = TopoTreeSearch::Create(tree, topo_options);
  ASSERT_TRUE(exhaustive.ok());
  auto truth = exhaustive->FindOptimalDfs();
  ASSERT_TRUE(truth.ok());

  DataTreeOptions options;  // full pruning
  auto search = DataTreeSearch::Create(tree, options);
  ASSERT_TRUE(search.ok());
  auto fast = search->FindOptimal();
  ASSERT_TRUE(fast.ok());

  EXPECT_NEAR(fast->average_data_wait, truth->average_data_wait, 1e-9)
      << tree.ToString();
  EXPECT_TRUE(ValidateSlotSequence(tree, 1, fast->slots).ok());
}

TEST_P(DataTreeOptimalityTest, ExtendedExchangeKeepsTheOptimum) {
  const DataTreeCase& param = GetParam();
  Rng rng(param.seed ^ 0xABCDE);
  IndexTree tree = MakeRandomTree(&rng, param.num_data, param.max_fanout,
                                  /*max_nodes=*/12);

  DataTreeOptions plain;
  DataTreeOptions extended;
  extended.extended_exchange = true;
  auto a = DataTreeSearch::Create(tree, plain);
  auto b = DataTreeSearch::Create(tree, extended);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ra = a->FindOptimal();
  auto rb = b->FindOptimal();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_NEAR(ra->average_data_wait, rb->average_data_wait, 1e-9)
      << "Corollary 2's block exchange must not prune away all optima\n"
      << tree.ToString();
}

std::vector<DataTreeCase> MakeDataTreeCases() {
  std::vector<DataTreeCase> cases;
  uint64_t seed = 9000;
  for (int num_data = 2; num_data <= 8; ++num_data) {
    for (int fanout = 2; fanout <= 4; ++fanout) {
      for (int rep = 0; rep < 4; ++rep) {
        cases.push_back({seed++, num_data, fanout});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, DataTreeOptimalityTest,
                         ::testing::ValuesIn(MakeDataTreeCases()));

// --- broadcast generation ----------------------------------------------------

TEST(BroadcastFromDataOrderTest, LazyAncestorInsertion) {
  IndexTree tree = MakePaperExampleTree();
  // Order A, B, C, E, D -> broadcast 1 2 A B 3 4 C E D (ancestors lazily).
  std::vector<NodeId> order;
  for (const char* label : {"A", "B", "C", "E", "D"}) {
    for (NodeId id = 0; id < tree.num_nodes(); ++id) {
      if (tree.label(id) == label) order.push_back(id);
    }
  }
  SlotSequence slots = BroadcastFromDataOrder(tree, order);
  ASSERT_EQ(slots.size(), 9u);
  std::vector<std::string> labels;
  for (const auto& slot : slots) labels.push_back(tree.label(slot[0]));
  EXPECT_EQ(labels, (std::vector<std::string>{"1", "2", "A", "B", "3", "4", "C",
                                              "E", "D"}));
  EXPECT_TRUE(ValidateSlotSequence(tree, 1, slots).ok());
}

TEST(DataTreeTest, RejectsOversizedTrees) {
  Rng rng(99);
  IndexTree tree = MakeRandomTree(&rng, 70, 3);
  ASSERT_GT(tree.num_nodes(), 64);
  auto search = DataTreeSearch::Create(tree, DataTreeOptions{});
  EXPECT_FALSE(search.ok());
}

TEST(DataTreeTest, CountHonorsLimit) {
  IndexTree tree = MakePaperExampleTree();
  auto search = DataTreeSearch::Create(tree, NoPruning());
  ASSERT_TRUE(search.ok());
  auto count = search->CountPaths(5);
  EXPECT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace bcast
