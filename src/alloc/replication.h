// Index replication within a broadcast cycle (the paper's second future-work
// item: "to reduce the initial time after tuning to the broadcast channel,
// index nodes should be properly replicated").
//
// The base model makes a client wait for the *next cycle start* to catch the
// root — an expected probe wait of cycle/2. This module inserts `root_copies`
// replica blocks at even spacing; each block carries the top
// `replicate_levels` index levels ((1,m)-indexing of [IVB94a]: with 1 level
// only the root bucket is repeated, with deeper segments a mid-cycle client
// can descend several levels without wrapping into the next cycle). The
// probe wait falls to ~cycle/(2·copies) while the cycle grows by the replica
// blocks, and ComputeReplicatedCosts integrates the exact trade-off.
//
// Pointers in this model are circular: from time p, the next occurrence of a
// node with occurrence slots S is the earliest s in S (mod cycle) at or
// after p. A replica block late in the cycle may point to children airing
// early in the *next* cycle.

#ifndef BCAST_ALLOC_REPLICATION_H_
#define BCAST_ALLOC_REPLICATION_H_

#include <vector>

#include "alloc/allocation.h"
#include "broadcast/schedule.h"
#include "tree/index_tree.h"
#include "util/status.h"

namespace bcast {

/// A broadcast cycle whose grid additionally carries replica blocks of the
/// top index levels.
struct ReplicatedProgram {
  int num_channels = 0;
  int cycle_length = 0;  // slots, including replica columns
  /// grid[channel][slot]; kInvalidNode for empty buckets. Replicated index
  /// nodes appear multiple times; every other node exactly once.
  std::vector<std::vector<NodeId>> grid;
  /// Slots of channel 0 holding a root bucket (sorted ascending).
  std::vector<int> root_slots;
  /// Primary placement of every node (for replicated nodes: the copy from
  /// the base schedule).
  std::vector<SlotRef> primary;
  /// All occurrence slots per node, sorted ascending (size 1 for
  /// unreplicated nodes).
  std::vector<std::vector<int>> occurrences;
};

struct ReplicationOptions {
  /// Total copies of the replicated segment per cycle (>= 1; 1 reproduces
  /// the base schedule).
  int root_copies = 1;
  /// How many top index levels each extra copy carries (>= 1; 1 = just the
  /// root bucket). Deeper segments shorten the first hops of mid-cycle
  /// clients at the price of wider replica blocks.
  int replicate_levels = 1;
};

/// Builds a replicated program from a feasible slot sequence by inserting
/// replica blocks at even spacing. Errors if the slot sequence is infeasible
/// or options are out of range.
Result<ReplicatedProgram> BuildReplicatedProgram(
    const IndexTree& tree, const SlotSequence& slots, int num_channels,
    const ReplicationOptions& options);

/// Structural invariants: every node present with the advertised occurrence
/// count, grids and occurrence lists consistent, primary copies ordered
/// child-after-parent.
Status ValidateReplicatedProgram(const IndexTree& tree,
                                 const ReplicatedProgram& program);

/// Exact expected costs under uniform arrival times and weight-proportional
/// queries, following the circular pointer-walk model above (each hop takes
/// the earliest occurrence of the next node). The population simulator
/// (popsim/popsim.h) on a replicated program is its Monte-Carlo cross-check.
struct ReplicatedCosts {
  double expected_probe_wait = 0.0;   // arrival -> first usable root bucket
  double expected_walk_time = 0.0;    // root bucket -> data bucket downloaded
  double expected_access_time = 0.0;  // probe + walk
  double expected_tuning_time = 0.0;  // buckets listened (incl. root, data)
};
ReplicatedCosts ComputeReplicatedCosts(const IndexTree& tree,
                                       const ReplicatedProgram& program);

}  // namespace bcast

#endif  // BCAST_ALLOC_REPLICATION_H_
