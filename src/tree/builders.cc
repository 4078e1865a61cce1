#include "tree/builders.h"

#include <algorithm>
#include <limits>
#include <string>

#include "util/check.h"

namespace bcast {

IndexTree MakePaperExampleTree() {
  IndexTree tree;
  NodeId n1 = tree.AddIndexNode(kInvalidNode, "1");
  NodeId n2 = tree.AddIndexNode(n1, "2");
  NodeId n3 = tree.AddIndexNode(n1, "3");
  tree.AddDataNode(n2, 20.0, "A");
  tree.AddDataNode(n2, 10.0, "B");
  NodeId n4 = tree.AddIndexNode(n3, "4");
  tree.AddDataNode(n3, 18.0, "E");
  tree.AddDataNode(n4, 15.0, "C");
  tree.AddDataNode(n4, 7.0, "D");
  BCAST_CHECK(tree.Finalize().ok());
  return tree;
}

Result<IndexTree> MakeFullBalancedTree(int fanout, int depth,
                                       const std::vector<double>& leaf_weights) {
  if (fanout < 2) return InvalidArgumentError("fanout must be >= 2");
  if (depth < 2) return InvalidArgumentError("depth must be >= 2");
  int64_t expected_leaves = 1;
  for (int level = 1; level < depth; ++level) {
    expected_leaves *= fanout;
    if (expected_leaves > (int64_t{1} << 26)) {
      return InvalidArgumentError("balanced tree too large");
    }
  }
  if (static_cast<int64_t>(leaf_weights.size()) != expected_leaves) {
    return InvalidArgumentError(
        "expected " + std::to_string(expected_leaves) + " leaf weights, got " +
        std::to_string(leaf_weights.size()));
  }

  IndexTree tree;
  std::vector<NodeId> frontier = {tree.AddIndexNode(kInvalidNode, "i1")};
  int next_index_label = 2;
  for (int level = 2; level < depth; ++level) {
    std::vector<NodeId> next;
    next.reserve(frontier.size() * static_cast<size_t>(fanout));
    for (NodeId parent : frontier) {
      for (int c = 0; c < fanout; ++c) {
        next.push_back(
            tree.AddIndexNode(parent, "i" + std::to_string(next_index_label++)));
      }
    }
    frontier = std::move(next);
  }
  size_t leaf = 0;
  for (NodeId parent : frontier) {
    for (int c = 0; c < fanout; ++c) {
      tree.AddDataNode(parent, leaf_weights[leaf], "d" + std::to_string(leaf + 1));
      ++leaf;
    }
  }
  Status status = tree.Finalize();
  if (!status.ok()) return status;
  return tree;
}

IndexTree MakeChainTree(int chain_length, double leaf_weight) {
  BCAST_CHECK_GE(chain_length, 1);
  IndexTree tree;
  NodeId cur = tree.AddIndexNode(kInvalidNode, "i1");
  for (int i = 2; i <= chain_length; ++i) {
    cur = tree.AddIndexNode(cur, "i" + std::to_string(i));
  }
  tree.AddDataNode(cur, leaf_weight, "d1");
  BCAST_CHECK(tree.Finalize().ok());
  return tree;
}

namespace {

void AddRandomLeaf(Rng* rng, IndexTree* tree, NodeId parent,
                   int* next_data_label) {
  double w = static_cast<double>(rng->UniformInt(1, 100));
  tree->AddDataNode(parent, w, "d" + std::to_string((*next_data_label)++));
}

// Recursively splits `num_data` leaves under `parent`, adding at most
// `*index_budget` index nodes.
void GrowRandomSubtree(Rng* rng, IndexTree* tree, NodeId parent, int num_data,
                       int max_fanout, int* index_budget, int* next_data_label,
                       int* next_index_label) {
  BCAST_CHECK_GE(num_data, 1);
  if (num_data == 1) {
    AddRandomLeaf(rng, tree, parent, next_data_label);
    return;
  }
  int parts = static_cast<int>(
      rng->UniformInt(2, std::min<int64_t>(max_fanout, num_data)));
  // Split num_data into `parts` positive shares.
  std::vector<int> share(static_cast<size_t>(parts), 1);
  for (int extra = num_data - parts; extra > 0; --extra) {
    ++share[static_cast<size_t>(rng->UniformInt(0, parts - 1))];
  }
  for (int s : share) {
    if (s == 1) {
      AddRandomLeaf(rng, tree, parent, next_data_label);
    } else if (*index_budget == 0) {
      for (int i = 0; i < s; ++i) {
        AddRandomLeaf(rng, tree, parent, next_data_label);
      }
    } else {
      --*index_budget;
      NodeId child =
          tree->AddIndexNode(parent, "i" + std::to_string((*next_index_label)++));
      GrowRandomSubtree(rng, tree, child, s, max_fanout, index_budget,
                        next_data_label, next_index_label);
    }
  }
}

}  // namespace

IndexTree MakeRandomTree(Rng* rng, int num_data, int max_fanout) {
  return MakeRandomTree(rng, num_data, max_fanout,
                        std::numeric_limits<int>::max());
}

IndexTree MakeRandomTree(Rng* rng, int num_data, int max_fanout,
                         int max_nodes) {
  BCAST_CHECK_GE(num_data, 1);
  BCAST_CHECK_GE(max_fanout, 2);
  BCAST_CHECK_GT(max_nodes, num_data);
  IndexTree tree;
  NodeId root = tree.AddIndexNode(kInvalidNode, "i1");
  int index_budget = max_nodes - num_data - 1;
  int next_data_label = 1;
  int next_index_label = 2;
  GrowRandomSubtree(rng, &tree, root, num_data, max_fanout, &index_budget,
                    &next_data_label, &next_index_label);
  BCAST_CHECK(tree.Finalize().ok());
  return tree;
}

}  // namespace bcast
