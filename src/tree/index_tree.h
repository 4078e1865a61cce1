// IndexTree: the k-nary search-tree structure broadcast by the server.
//
// Following the paper (Section 2.1), an index tree has internal *index nodes*
// and leaf *data nodes*; each data node carries an access-frequency weight
// W(Di). Index nodes additionally carry a unique preorder rank used as their
// tie-break "weight" by the local-swap pruning rule (Section 3.2: "The weight
// can be given by numbering the index nodes from 1 by the preorder traversal
// of the index tree").
//
// Trees are built incrementally (AddIndexNode / AddDataNode) and then
// Finalize()d, which validates the shape (every leaf is a data node, every
// data node is a leaf) and computes preorder ranks, levels and subtree
// aggregates. All read accessors require a finalized tree.

#ifndef BCAST_TREE_INDEX_TREE_H_
#define BCAST_TREE_INDEX_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace bcast {

/// Dense node identifier; the root is always node 0.
using NodeId = int32_t;

/// Sentinel for "no node" (e.g. the parent of the root).
inline constexpr NodeId kInvalidNode = -1;

enum class NodeKind : uint8_t {
  kIndex,  // internal routing node
  kData,   // leaf carrying a broadcast data item
};

/// One node of the index tree. Passive data carrier; invariants are enforced
/// by IndexTree.
struct TreeNode {
  NodeKind kind = NodeKind::kIndex;
  double weight = 0.0;        // access frequency; 0 for index nodes
  NodeId parent = kInvalidNode;
  std::vector<NodeId> children;
  std::string label;          // human-readable name ("1", "A", ...)
  int preorder_rank = 0;      // 1-based preorder position (root == 1)
  int level = 0;              // depth, root level == 1
  int subtree_size = 0;       // nodes in the subtree rooted here (incl. self)
  double subtree_weight = 0.0;  // sum of data weights in the subtree
};

/// The index tree. Move-only is unnecessary — copying is meaningful and used
/// by the shrinking heuristic, so the implicit copy operations are kept.
class IndexTree {
 public:
  IndexTree() = default;

  // --- construction -------------------------------------------------------

  /// Adds an index node. `parent == kInvalidNode` creates the root (allowed
  /// exactly once, and the root must be the first node added).
  NodeId AddIndexNode(NodeId parent, std::string label = "");

  /// Adds a data (leaf) node with access frequency `weight`.
  NodeId AddDataNode(NodeId parent, double weight, std::string label = "");

  /// Validates shape and computes derived fields. Errors (not crashes) on:
  /// empty tree, index node without children, data node with children,
  /// negative weights, and data weights whose sum is not positive and finite
  /// (every cost is an average weighted by them). A finalized tree is
  /// immutable; calling Add* afterwards is a checked failure.
  Status Finalize();

  bool finalized() const { return finalized_; }

  // --- accessors (finalized trees only) ------------------------------------

  NodeId root() const { return 0; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_data_nodes() const { return num_data_nodes_; }
  int num_index_nodes() const { return num_nodes() - num_data_nodes_; }

  const TreeNode& node(NodeId id) const;
  bool is_data(NodeId id) const { return node(id).kind == NodeKind::kData; }
  bool is_index(NodeId id) const { return node(id).kind == NodeKind::kIndex; }
  double weight(NodeId id) const { return node(id).weight; }
  NodeId parent(NodeId id) const { return node(id).parent; }
  const std::vector<NodeId>& children(NodeId id) const { return node(id).children; }
  const std::string& label(NodeId id) const { return node(id).label; }

  /// Tree depth in levels (root-only tree has depth 1).
  int depth() const { return depth_; }

  /// Maximum number of nodes on any one level (Corollary 1's threshold).
  int max_level_width() const { return max_level_width_; }

  /// Sum of all data-node weights (the denominator of the average data
  /// wait); positive and finite once finalized.
  double total_data_weight() const { return total_data_weight_; }

  /// True iff `ancestor` is a proper ancestor of `descendant`.
  bool IsAncestor(NodeId ancestor, NodeId descendant) const;

  /// Proper ancestors of `id`, root first.
  std::vector<NodeId> AncestorsOf(NodeId id) const;

  /// All node ids in preorder.
  std::vector<NodeId> PreorderSequence() const;

  /// All data-node ids in preorder.
  std::vector<NodeId> DataNodes() const;

  /// Node ids grouped by level; `LevelNodes()[l]` is level l+1 in the
  /// paper's 1-based numbering, in preorder order within the level.
  std::vector<std::vector<NodeId>> LevelNodes() const;

  /// Multi-line indented rendering for debugging and examples.
  std::string ToString() const;

 private:
  NodeId AddNode(NodeId parent, NodeKind kind, double weight, std::string label);

  std::vector<TreeNode> nodes_;
  bool finalized_ = false;
  int num_data_nodes_ = 0;
  int depth_ = 0;
  int max_level_width_ = 0;
  double total_data_weight_ = 0.0;
};

}  // namespace bcast

#endif  // BCAST_TREE_INDEX_TREE_H_
