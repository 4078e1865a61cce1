// Monte-Carlo mobile-client simulator.
//
// Replays the access protocol of Section 2.1 against a materialized broadcast
// cycle: a client poses a query at a uniformly random time, listens on the
// first channel for the pointer to the next cycle start (probe wait), then
// follows (channel, offset) index pointers — dozing in between — until the
// requested data bucket arrives (data wait). The simulator is the
// end-to-end check that the analytic cost model and the pointer
// materialization agree: the empirical mean data wait converges to formula
// (1), and the empirical tuning time to the weighted path length.
//
// AccessOnce is the repo's only implementation of that protocol: Run() loops
// it over sampled queries, and the population simulator (popsim/popsim.h)
// drives it once per client of a whole fleet.
//
// The medium may be faulty (SimOptions::faults): buckets are lost or
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
// Determinism: query sampling and arrival times draw from the caller's Rng;
// fault draws come from its RngStream::kFault substream. With all loss
// probabilities zero the fault substream is never touched and the simulation
// is bit-identical to the lossless simulator under the same seed.

#ifndef BCAST_SIM_CLIENT_SIM_H_
#define BCAST_SIM_CLIENT_SIM_H_

#include <cstdint>
#include <vector>

#include "alloc/replication.h"
#include "broadcast/schedule.h"
#include "fault/fault_model.h"
#include "tree/index_tree.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/query_sampler.h"

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

struct SimOptions {
  uint64_t num_queries = 100'000;
  /// Medium fault model. Default: lossless (the paper's assumption).
  FaultModel faults;
  RecoveryOptions recovery;
};

/// Aggregates over simulated queries. Waits are in buckets (slot times).
/// Means and percentiles are taken over *successful* accesses; failures are
/// only visible through num_succeeded / success_rate.
struct SimReport {
  uint64_t num_queries = 0;
  double mean_probe_wait = 0.0;   // time to the next cycle start (~ cycle/2)
  double mean_data_wait = 0.0;    // cycle start -> data bucket downloaded
  double mean_access_time = 0.0;  // probe + data wait
  double mean_tuning_time = 0.0;  // buckets actively listened to
  double mean_switches = 0.0;     // channel hops along the pointer path
  /// Fraction of the access time spent listening (1 - doze ratio).
  double listen_fraction = 0.0;

  // --- delivery outcome (trivial on a lossless medium) --------------------
  uint64_t num_succeeded = 0;
  /// num_succeeded / num_queries (1.0 when the medium is lossless).
  double success_rate = 0.0;

  // --- fault and recovery telemetry (all zero on a lossless medium) -------
  uint64_t buckets_lost = 0;       // listened slots with nothing received
  uint64_t buckets_corrupted = 0;  // listened slots failing the checksum
  uint64_t retries = 0;            // re-reads at a later occurrence
  uint64_t cycle_restarts = 0;     // backoffs to a cycle start
  uint64_t sequential_scans = 0;   // queries that degraded to a full scan

  // --- access-time tail over successful queries (nearest-rank) ------------
  double p50_access_time = 0.0;
  double p95_access_time = 0.0;
  double p99_access_time = 0.0;

  // --- reproducibility ----------------------------------------------------
  /// Engine draws consumed from the caller's Rng (query sampling + arrivals)
  /// and from its kFault substream. Together with the seed these pin the
  /// exact random prefix a run consumed, so a report is replayable.
  uint64_t rng_query_draws = 0;
  uint64_t rng_fault_draws = 0;
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

/// Simulates clients against one broadcast program — either a plain
/// (tree, schedule) cycle or a replicated program whose index replicas the
/// recovery protocol exploits.
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

  /// Runs `options.num_queries` independent client accesses.
  SimReport Run(Rng* rng, const SimOptions& options) const;

  /// Replays one client's access to data node `target`, posed at absolute
  /// slot time `arrival`. `medium` is null on a lossless run (no fault
  /// draws). Fault/recovery counters accumulate into `report`; nothing else
  /// of it is touched.
  ClientOutcome AccessOnce(NodeId target, double arrival, FaultProcess* medium,
                           const RecoveryOptions& recovery,
                           SimReport* report) const;

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
  QuerySampler sampler_;
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
