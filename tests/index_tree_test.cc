#include "tree/index_tree.h"

#include <gtest/gtest.h>

#include <limits>

#include "tree/builders.h"
#include "tree/tree_io.h"

namespace bcast {
namespace {

TEST(IndexTreeTest, PaperExampleShape) {
  IndexTree tree = MakePaperExampleTree();
  EXPECT_EQ(tree.num_nodes(), 9);
  EXPECT_EQ(tree.num_data_nodes(), 5);
  EXPECT_EQ(tree.num_index_nodes(), 4);
  EXPECT_EQ(tree.depth(), 4);
  EXPECT_DOUBLE_EQ(tree.total_data_weight(), 70.0);
  EXPECT_EQ(tree.label(tree.root()), "1");
  EXPECT_TRUE(tree.is_index(tree.root()));
}

TEST(IndexTreeTest, PreorderRanksFollowPreorderTraversal) {
  IndexTree tree = MakePaperExampleTree();
  // Preorder: 1, 2, A, B, 3, 4, C, D, E.
  std::vector<NodeId> preorder = tree.PreorderSequence();
  ASSERT_EQ(preorder.size(), 9u);
  std::vector<std::string> labels;
  for (NodeId id : preorder) labels.push_back(tree.label(id));
  EXPECT_EQ(labels, (std::vector<std::string>{"1", "2", "A", "B", "3", "4", "C",
                                              "D", "E"}));
  for (size_t i = 0; i < preorder.size(); ++i) {
    EXPECT_EQ(tree.node(preorder[i]).preorder_rank, static_cast<int>(i) + 1);
  }
}

TEST(IndexTreeTest, LevelsAndWidths) {
  IndexTree tree = MakePaperExampleTree();
  auto levels = tree.LevelNodes();
  ASSERT_EQ(levels.size(), 4u);
  EXPECT_EQ(levels[0].size(), 1u);  // 1
  EXPECT_EQ(levels[1].size(), 2u);  // 2 3
  EXPECT_EQ(levels[2].size(), 4u);  // A B 4 E
  EXPECT_EQ(levels[3].size(), 2u);  // C D
  EXPECT_EQ(tree.max_level_width(), 4);
}

TEST(IndexTreeTest, AncestorQueries) {
  IndexTree tree = MakePaperExampleTree();
  auto id_of = [&](const std::string& label) {
    for (NodeId id = 0; id < tree.num_nodes(); ++id) {
      if (tree.label(id) == label) return id;
    }
    return kInvalidNode;
  };
  NodeId c = id_of("C");
  EXPECT_TRUE(tree.IsAncestor(id_of("1"), c));
  EXPECT_TRUE(tree.IsAncestor(id_of("3"), c));
  EXPECT_TRUE(tree.IsAncestor(id_of("4"), c));
  EXPECT_FALSE(tree.IsAncestor(id_of("2"), c));
  EXPECT_FALSE(tree.IsAncestor(c, id_of("4")));

  std::vector<NodeId> ancestors = tree.AncestorsOf(c);
  ASSERT_EQ(ancestors.size(), 3u);
  EXPECT_EQ(tree.label(ancestors[0]), "1");  // root first
  EXPECT_EQ(tree.label(ancestors[1]), "3");
  EXPECT_EQ(tree.label(ancestors[2]), "4");
  EXPECT_TRUE(tree.AncestorsOf(tree.root()).empty());
}

TEST(IndexTreeTest, SubtreeAggregates) {
  IndexTree tree = MakePaperExampleTree();
  auto id_of = [&](const std::string& label) {
    for (NodeId id = 0; id < tree.num_nodes(); ++id) {
      if (tree.label(id) == label) return id;
    }
    return kInvalidNode;
  };
  EXPECT_EQ(tree.node(tree.root()).subtree_size, 9);
  EXPECT_DOUBLE_EQ(tree.node(tree.root()).subtree_weight, 70.0);
  EXPECT_EQ(tree.node(id_of("3")).subtree_size, 5);
  EXPECT_DOUBLE_EQ(tree.node(id_of("3")).subtree_weight, 40.0);  // C+D+E
  EXPECT_EQ(tree.node(id_of("4")).subtree_size, 3);
  EXPECT_DOUBLE_EQ(tree.node(id_of("4")).subtree_weight, 22.0);  // C+D
  EXPECT_EQ(tree.node(id_of("A")).subtree_size, 1);
}

TEST(IndexTreeTest, DataNodesInPreorder) {
  IndexTree tree = MakePaperExampleTree();
  std::vector<std::string> labels;
  for (NodeId id : tree.DataNodes()) labels.push_back(tree.label(id));
  EXPECT_EQ(labels, (std::vector<std::string>{"A", "B", "C", "D", "E"}));
}

// --- Finalize validation ------------------------------------------------------

TEST(IndexTreeTest, FinalizeRejectsEmptyTree) {
  IndexTree tree;
  Status status = tree.Finalize();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(IndexTreeTest, FinalizeRejectsIndexLeaf) {
  IndexTree tree;
  NodeId root = tree.AddIndexNode(kInvalidNode, "r");
  tree.AddIndexNode(root, "leaf-index");
  tree.AddDataNode(root, 5.0, "d");
  Status status = tree.Finalize();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("leaf"), std::string::npos);
}

TEST(IndexTreeTest, FinalizeRejectsNegativeWeight) {
  IndexTree tree;
  NodeId root = tree.AddIndexNode(kInvalidNode, "r");
  tree.AddDataNode(root, -1.0, "d");
  EXPECT_FALSE(tree.Finalize().ok());
}

TEST(IndexTreeTest, FinalizeRejectsAllZeroTreeOfIndexOnly) {
  IndexTree tree;
  tree.AddIndexNode(kInvalidNode, "r");
  Status status = tree.Finalize();
  EXPECT_FALSE(status.ok());
}

TEST(IndexTreeTest, FinalizeRejectsZeroTotalWeight) {
  auto tree = ParseTree("(1 A:0 B:0)");
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tree.status().message().find("positive finite weight"), std::string::npos);
}

TEST(IndexTreeTest, FinalizeRejectsNanWeight) {
  IndexTree tree;
  NodeId root = tree.AddIndexNode(kInvalidNode, "r");
  tree.AddDataNode(root, 5.0, "a");
  tree.AddDataNode(root, std::numeric_limits<double>::quiet_NaN(), "b");
  Status status = tree.Finalize();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("positive finite weight"), std::string::npos);
}

TEST(IndexTreeTest, DataRootIsAllowed) {
  IndexTree tree;
  tree.AddDataNode(kInvalidNode, 3.0, "only");
  ASSERT_TRUE(tree.Finalize().ok());
  EXPECT_EQ(tree.num_nodes(), 1);
  EXPECT_EQ(tree.depth(), 1);
  EXPECT_EQ(tree.max_level_width(), 1);
}

TEST(IndexTreeDeathTest, MutationAfterFinalizeChecks) {
  IndexTree tree = MakePaperExampleTree();
  EXPECT_DEATH(tree.AddDataNode(tree.root(), 1.0, "late"), "finalized");
}

TEST(IndexTreeDeathTest, ReadBeforeFinalizeChecks) {
  IndexTree tree;
  tree.AddIndexNode(kInvalidNode, "r");
  EXPECT_DEATH(tree.node(0), "finalized");
}

TEST(IndexTreeTest, ToStringShowsStructure) {
  IndexTree tree = MakePaperExampleTree();
  std::string rendered = tree.ToString();
  EXPECT_NE(rendered.find("[index 1]"), std::string::npos);
  EXPECT_NE(rendered.find("A (w=20)"), std::string::npos);
  EXPECT_NE(rendered.find("D (w=7)"), std::string::npos);
}

TEST(IndexTreeTest, ChainTreeShape) {
  IndexTree chain = MakeChainTree(5, 42.0);
  EXPECT_EQ(chain.num_nodes(), 6);
  EXPECT_EQ(chain.depth(), 6);
  EXPECT_EQ(chain.max_level_width(), 1);
  EXPECT_DOUBLE_EQ(chain.total_data_weight(), 42.0);
}

TEST(IndexTreeTest, BalancedTreeShapeAndErrors) {
  std::vector<double> weights(9, 1.0);
  auto tree = MakeFullBalancedTree(3, 3, weights);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_nodes(), 13);  // 1 + 3 + 9
  EXPECT_EQ(tree->num_data_nodes(), 9);
  EXPECT_EQ(tree->depth(), 3);
  EXPECT_EQ(tree->max_level_width(), 9);

  EXPECT_FALSE(MakeFullBalancedTree(3, 3, std::vector<double>(8, 1.0)).ok());
  EXPECT_FALSE(MakeFullBalancedTree(1, 3, weights).ok());
  EXPECT_FALSE(MakeFullBalancedTree(3, 1, weights).ok());
}

class RandomTreeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTreeTest, RandomTreesAreWellFormed) {
  Rng rng(GetParam());
  int num_data = static_cast<int>(rng.UniformInt(1, 30));
  int fanout = static_cast<int>(rng.UniformInt(2, 6));
  IndexTree tree = MakeRandomTree(&rng, num_data, fanout);
  EXPECT_EQ(tree.num_data_nodes(), num_data);
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (tree.is_index(id)) {
      EXPECT_GE(static_cast<int>(tree.children(id).size()), 1);
      EXPECT_LE(static_cast<int>(tree.children(id).size()), fanout);
    } else {
      EXPECT_TRUE(tree.children(id).empty());
      EXPECT_GE(tree.weight(id), 1.0);
    }
    // Parent/child links are mutually consistent.
    for (NodeId child : tree.children(id)) {
      EXPECT_EQ(tree.parent(child), id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

}  // namespace
}  // namespace bcast
