// The mobile client of Section 2.1, replayed against a materialized
// broadcast cycle: a client poses a query at some time, listens on the first
// channel for the pointer to the next cycle start (probe wait), then follows
// (channel, offset) index pointers — dozing in between — until the requested
// data bucket arrives (data wait).
//
// AccessOnce is the repo's only implementation of that protocol, and the
// population simulator (popsim/popsim.h) is its only Monte-Carlo driver: it
// draws each client's target and arrival and calls AccessOnce once per
// client. Run over enough clients, the empirical mean data wait converges to
// formula (1) and the empirical tuning time to the weighted path length —
// the end-to-end check that the analytic cost model and the pointer
// materialization agree.
//
// The medium may be faulty (AccessOnce's FaultProcess): buckets are lost or
// detectably corrupted per a FaultModel, and the client degrades gracefully
// instead of silently failing:
//   1. retry — an unusable bucket is re-read at the node's next broadcast
//      occurrence (the same slot one cycle later, or an earlier replica when
//      the program was built with index replication), up to
//      RecoveryOptions::max_retries_per_hop failures per hop;
//   2. backoff — a hop that exhausts its retries abandons the pointer chain,
//      dozes to the next cycle start and restarts the descent from the root,
//      up to max_cycle_restarts times;
//   3. sequential scan — as a last resort the client scans the cycle channel
//      by channel, listening to every bucket until the target arrives intact
//      (max_scan_passes passes over all channels), trading energy for
//      delivery.
// A query that exhausts every fallback is reported as failed, never as an
// optimistic wait.
//
// Determinism: AccessOnce draws nothing itself; every fault draw comes from
// the FaultProcess the caller hands it. A lossless access (null medium)
// makes no draws at all.

#ifndef BCAST_SIM_CLIENT_SIM_H_
#define BCAST_SIM_CLIENT_SIM_H_

#include <cstdint>
#include <vector>

#include "alloc/replication.h"
#include "broadcast/schedule.h"
#include "fault/fault_model.h"
#include "tree/index_tree.h"
#include "util/status.h"

namespace bcast {

/// Bounds on the client's recovery ladder under a faulty medium.
struct RecoveryOptions {
  /// Failed reads tolerated per pointer hop before the chain is abandoned.
  int max_retries_per_hop = 3;
  /// Root restarts (doze to next cycle start, descend again) before the
  /// client stops trusting the index.
  int max_cycle_restarts = 2;
  /// Full passes over all channels in the last-resort sequential scan.
  int max_scan_passes = 2;
};

/// What the recovery ladder did, summed over the accesses it is passed to.
struct RecoveryTally {
  uint64_t buckets_lost = 0;       // listened slots with nothing received
  uint64_t buckets_corrupted = 0;  // listened slots failing the checksum
  uint64_t retries = 0;            // re-reads at a later occurrence
  uint64_t cycle_restarts = 0;     // backoffs to a cycle start
  uint64_t sequential_scans = 0;   // accesses that degraded to a full scan
};

/// One client's terminal outcome. Waits are in buckets (slot times);
/// probe_wait/data_wait are meaningful only when success is true.
struct ClientOutcome {
  bool success = false;
  double probe_wait = 0.0;
  double data_wait = 0.0;
  uint32_t tuning = 0;
  uint32_t switches = 0;
  /// Last absolute slot the client listened to (probe, pointer read or scan
  /// bucket). A successful access finishes at last_slot + 1.
  int64_t last_slot = 0;
};

/// One broadcast program as a client sees it — either a plain (tree,
/// schedule) cycle or a replicated program whose index replicas the recovery
/// protocol exploits.
class ClientSimulator {
 public:
  /// Errors if the schedule is infeasible for the tree.
  static Result<ClientSimulator> Create(const IndexTree& tree,
                                        const BroadcastSchedule& schedule);

  /// Simulates against a replicated program (index replicas shorten both the
  /// probe wait and the recovery retries). Errors if the program fails
  /// ValidateReplicatedProgram.
  static Result<ClientSimulator> Create(const IndexTree& tree,
                                        const ReplicatedProgram& program);

  /// Replays one client's access to data node `target`, posed at absolute
  /// slot time `arrival`. `medium` is null on a lossless run (no fault
  /// draws). The fault and recovery counts accumulate into `tally`.
  ClientOutcome AccessOnce(NodeId target, double arrival, FaultProcess* medium,
                           const RecoveryOptions& recovery,
                           RecoveryTally* tally) const;

  const IndexTree& tree() const { return tree_; }
  int num_channels() const { return num_channels_; }
  int64_t cycle_length() const { return cycle_length_; }

 private:
  /// One broadcast occurrence of a node within the cycle.
  struct Occurrence {
    int slot = -1;
    int channel = -1;
  };

  ClientSimulator(const IndexTree& tree, bool replicated);

  /// Precomputes the root->target pointer path of every data node.
  void BuildPaths();

  /// Earliest occurrence of `node` whose slot start is >= `time` under the
  /// circular broadcast (absolute slot, channel).
  Occurrence NextOccurrence(NodeId node, int64_t time, int64_t* abs_slot) const;

  int64_t NextCycleStart(int64_t time) const;

  const IndexTree& tree_;
  bool replicated_;
  int num_channels_ = 0;
  int cycle_length_ = 0;
  /// All within-cycle occurrences per node, sorted by slot (size 1 unless the
  /// program replicates the node).
  std::vector<std::vector<Occurrence>> occurrences_;
  /// grid_[channel][slot]: the on-air bucket, for the sequential-scan
  /// fallback (kInvalidNode for empty buckets).
  std::vector<std::vector<NodeId>> grid_;
  /// paths_[node]: root -> ... -> node, for every data node (empty for
  /// index nodes, which are never query targets).
  std::vector<std::vector<NodeId>> paths_;
};

}  // namespace bcast

#endif  // BCAST_SIM_CLIENT_SIM_H_
