#include "tree/index_tree.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"

namespace bcast {

NodeId IndexTree::AddNode(NodeId parent, NodeKind kind, double weight,
                          std::string label) {
  BCAST_CHECK(!finalized_) << "cannot mutate a finalized IndexTree";
  if (parent == kInvalidNode) {
    BCAST_CHECK(nodes_.empty()) << "only the first node may be the root";
  } else {
    BCAST_CHECK_GE(parent, 0);
    BCAST_CHECK_LT(parent, static_cast<NodeId>(nodes_.size()));
  }
  NodeId id = static_cast<NodeId>(nodes_.size());
  TreeNode node;
  node.kind = kind;
  node.weight = weight;
  node.parent = parent;
  node.label = std::move(label);
  nodes_.push_back(std::move(node));
  if (parent != kInvalidNode) nodes_[parent].children.push_back(id);
  return id;
}

NodeId IndexTree::AddIndexNode(NodeId parent, std::string label) {
  return AddNode(parent, NodeKind::kIndex, 0.0, std::move(label));
}

NodeId IndexTree::AddDataNode(NodeId parent, double weight, std::string label) {
  return AddNode(parent, NodeKind::kData, weight, std::move(label));
}

Status IndexTree::Finalize() {
  if (finalized_) return Status::Ok();
  if (nodes_.empty()) return InvalidArgumentError("index tree is empty");

  num_data_nodes_ = 0;
  total_data_weight_ = 0.0;
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    const TreeNode& n = nodes_[id];
    if (n.kind == NodeKind::kData) {
      if (!n.children.empty()) {
        return InvalidArgumentError("data node '" + n.label +
                                    "' has children; data nodes must be leaves");
      }
      if (n.weight < 0.0) {
        return InvalidArgumentError("data node '" + n.label +
                                    "' has a negative weight");
      }
      ++num_data_nodes_;
      total_data_weight_ += n.weight;
    } else if (n.children.empty()) {
      return InvalidArgumentError("index node '" + n.label +
                                  "' is a leaf; every leaf must be a data node");
    }
  }
  if (num_data_nodes_ == 0) {
    return InvalidArgumentError("index tree has no data nodes");
  }
  // Every cost of the paper is a weight-averaged wait, undefined unless the
  // data weights have a positive, finite sum (this also rejects NaN).
  if (!std::isfinite(total_data_weight_) || total_data_weight_ <= 0.0) {
    return InvalidArgumentError(
        "the tree's data weights must sum to a positive finite weight");
  }

  // Preorder ranks, levels, subtree aggregates (iterative DFS; children are
  // visited left-to-right so ranks match the paper's preorder numbering).
  int next_rank = 1;
  depth_ = 0;
  std::vector<NodeId> stack = {root()};
  nodes_[root()].level = 1;
  std::vector<int> level_width;
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    TreeNode& n = nodes_[id];
    n.preorder_rank = next_rank++;
    depth_ = std::max(depth_, n.level);
    if (static_cast<size_t>(n.level) > level_width.size()) {
      level_width.resize(n.level, 0);
    }
    ++level_width[n.level - 1];
    // Push children in reverse so the leftmost child is visited first.
    for (size_t i = n.children.size(); i-- > 0;) {
      nodes_[n.children[i]].level = n.level + 1;
      stack.push_back(n.children[i]);
    }
  }
  max_level_width_ = *std::max_element(level_width.begin(), level_width.end());

  // Subtree aggregates bottom-up: ids are topologically ordered (parents are
  // created before children), so a reverse sweep suffices.
  for (NodeId id = static_cast<NodeId>(nodes_.size()); id-- > 0;) {
    TreeNode& n = nodes_[id];
    n.subtree_size = 1;
    n.subtree_weight = n.kind == NodeKind::kData ? n.weight : 0.0;
    for (NodeId child : n.children) {
      n.subtree_size += nodes_[child].subtree_size;
      n.subtree_weight += nodes_[child].subtree_weight;
    }
  }

  finalized_ = true;
  return Status::Ok();
}

const TreeNode& IndexTree::node(NodeId id) const {
  BCAST_CHECK(finalized_) << "IndexTree must be finalized before reading";
  BCAST_CHECK_GE(id, 0);
  BCAST_CHECK_LT(id, static_cast<NodeId>(nodes_.size()));
  return nodes_[id];
}

bool IndexTree::IsAncestor(NodeId ancestor, NodeId descendant) const {
  NodeId cur = node(descendant).parent;
  while (cur != kInvalidNode) {
    if (cur == ancestor) return true;
    cur = nodes_[cur].parent;
  }
  return false;
}

std::vector<NodeId> IndexTree::AncestorsOf(NodeId id) const {
  std::vector<NodeId> out;
  NodeId cur = node(id).parent;
  while (cur != kInvalidNode) {
    out.push_back(cur);
    cur = nodes_[cur].parent;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<NodeId> IndexTree::PreorderSequence() const {
  BCAST_CHECK(finalized_);
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  std::vector<NodeId> stack = {root()};
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    out.push_back(id);
    const TreeNode& n = nodes_[id];
    for (size_t i = n.children.size(); i-- > 0;) stack.push_back(n.children[i]);
  }
  return out;
}

std::vector<NodeId> IndexTree::DataNodes() const {
  std::vector<NodeId> out;
  for (NodeId id : PreorderSequence()) {
    if (nodes_[id].kind == NodeKind::kData) out.push_back(id);
  }
  return out;
}

std::vector<std::vector<NodeId>> IndexTree::LevelNodes() const {
  BCAST_CHECK(finalized_);
  std::vector<std::vector<NodeId>> out(depth_);
  for (NodeId id : PreorderSequence()) {
    out[nodes_[id].level - 1].push_back(id);
  }
  return out;
}

std::string IndexTree::ToString() const {
  BCAST_CHECK(finalized_);
  std::ostringstream os;
  struct Frame {
    NodeId id;
    int indent;
  };
  std::vector<Frame> stack = {{root(), 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[f.id];
    os << std::string(static_cast<size_t>(f.indent) * 2, ' ');
    if (n.kind == NodeKind::kIndex) {
      os << "[index " << (n.label.empty() ? std::to_string(f.id) : n.label)
         << "]";
    } else {
      os << (n.label.empty() ? std::to_string(f.id) : n.label) << " (w="
         << n.weight << ")";
    }
    os << "\n";
    for (size_t i = n.children.size(); i-- > 0;) {
      stack.push_back({n.children[i], f.indent + 1});
    }
  }
  return os.str();
}

}  // namespace bcast
