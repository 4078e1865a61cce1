// Ready-made index-tree constructions used throughout the paper:
//  * the running example of Fig. 1,
//  * full balanced m-ary trees (the evaluation workload of Sections 4.1/4.2),
//  * chains (the space-waste example of Section 1.1),
//  * random trees for property testing.

#ifndef BCAST_TREE_BUILDERS_H_
#define BCAST_TREE_BUILDERS_H_

#include <vector>

#include "tree/index_tree.h"
#include "util/rng.h"
#include "util/status.h"

namespace bcast {

/// The paper's Fig. 1(a) example: index nodes 1..4, data nodes A(20), B(10),
/// E(18), C(15), D(7); tree 1 -> {2, 3}, 2 -> {A, B}, 3 -> {4, E},
/// 4 -> {C, D}. Total data weight 70.
IndexTree MakePaperExampleTree();

/// Full balanced `fanout`-ary tree of `depth` levels: levels 1..depth-1 are
/// index nodes, level `depth` holds fanout^(depth-1) data leaves whose
/// weights are `leaf_weights` in left-to-right order. Errors if the weight
/// count does not match. depth >= 2, fanout >= 2.
Result<IndexTree> MakeFullBalancedTree(int fanout, int depth,
                                       const std::vector<double>& leaf_weights);

/// A chain of `chain_length` index nodes ending in one data leaf — the
/// Section 1.1 extreme case where level-per-channel allocation wastes
/// chain_length - 1 channels. `leaf_weight` must be positive and finite.
IndexTree MakeChainTree(int chain_length, double leaf_weight);

/// Random tree with `num_data` data leaves: grows by attaching children to
/// random index nodes with fanout capped at `max_fanout`; every index node
/// ends up with >= 2 children (or >= 1 child when num_data == 1). Weights are
/// uniform in [1, 100].
IndexTree MakeRandomTree(Rng* rng, int num_data, int max_fanout);

/// MakeRandomTree with at most `max_nodes` nodes (needs max_nodes >
/// num_data). It draws as MakeRandomTree while index nodes fit under the
/// cap, so a tree that fits anyway comes out unchanged. Once the cap leaves
/// no room for another index node, a share of several leaves hangs them
/// directly on the current parent, whose fanout may then exceed max_fanout.
IndexTree MakeRandomTree(Rng* rng, int num_data, int max_fanout,
                         int max_nodes);

}  // namespace bcast

#endif  // BCAST_TREE_BUILDERS_H_
