// Population simulator: the access protocol of Section 2.1 replayed by an
// entire client fleet.
//
// The repo's only Monte-Carlo client driver: every client's access is one
// ClientSimulator::AccessOnce call (sim/client_sim.h), the only
// implementation of the protocol. `bcastctl simulate`, `plan --simulate`,
// the benches and the cost-model cross-checks all run a population. Clients
// never interact — the broadcast medium is read-only and fault realizations
// are per-client — so no shared calendar of broadcast time is needed: each
// client runs start to finish, in id order within its shard. Only seeding
// is done a block at a time: a shard seeds a block's generators side by
// side (Rng::PrepareDraws) before the block's accesses.
//
// Scale-out and determinism contract:
//   * The fleet is split into shards (contiguous client-id ranges), one
//     exec/parallel_for.h index each. Each shard writes its own slice of the
//     outcome array and shares nothing else mutable, so shards need no
//     synchronization at all.
//   * Client c's randomness comes exclusively from the keyed substream
//     Substream(RngStream::kClient, c) of the run seed: target and arrival
//     from that generator, fault draws from *its* kFault substream. No draw
//     depends on scheduling, so every per-client outcome — and the id-ordered
//     digest over them — is identical across shard layouts and thread counts.
//   * Client c draws its target, then its arrival (workload/population.h),
//     then hands AccessOnce a FaultProcess on its kFault substream. The
//     differential tests in tests/popsim_test.cc replay that derivation
//     client by client in a plain loop and check the outcomes and the counter
//     folding; golden digests pin the outcomes.
//
// Population shape (interest mix, arrival horizon, dozing, per-client loss
// regimes) comes from workload/population.h.

#ifndef BCAST_POPSIM_POPSIM_H_
#define BCAST_POPSIM_POPSIM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "alloc/replication.h"
#include "broadcast/schedule.h"
#include "fault/fault_model.h"
#include "sim/client_sim.h"
#include "tree/index_tree.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/population.h"

namespace bcast::obs {
class TelemetryPipeline;
}  // namespace bcast::obs

namespace bcast {

struct PopSimOptions {
  PopulationSpec population;
  /// Base medium every client listens through. Default: lossless.
  FaultModel faults;
  /// Medium for the population's degraded_fraction clients.
  FaultModel degraded_faults;
  RecoveryOptions recovery;
  /// Run seed; client c draws from Substream(RngStream::kClient, c).
  uint64_t seed = 0xC11;
  /// Worker threads; 0 = HardwareConcurrency() (exec/parallel_for.h). At
  /// most PopulationSimulator::kMaxAutoShards. Never affects results, only
  /// wall clock.
  int num_threads = 1;
  /// Fleet shards; 0 = auto (a function of the population size only, so a
  /// run is reproducible regardless of the machine's core count).
  int num_shards = 0;
  /// Streaming telemetry (obs/stream.h): when set, Run() closes one tick per
  /// shard during the post-join merge — in shard-id order, keyed by the shard
  /// ordinal, never wall clock — carrying that shard's client count, success
  /// rate, mean data wait and fault/retry tallies, and Finish()es the
  /// pipeline on every exit path. Emission happens strictly after the
  /// workers join, on the aggregation thread, so the per-client outcomes and
  /// the digest are byte-identical with this on or off, for every thread and
  /// shard count.
  obs::TelemetryPipeline* telemetry = nullptr;
};

/// Population-level aggregates. Waits are in buckets (slot times). Means and
/// percentiles are over *successful* clients; failures are visible through
/// num_succeeded / success_rate only.
struct PopReport {
  uint64_t num_clients = 0;
  uint64_t num_succeeded = 0;
  double success_rate = 0.0;

  double mean_probe_wait = 0.0;   // arrival -> walk start (~ cycle/2)
  double mean_data_wait = 0.0;    // walk start -> data bucket downloaded
  double mean_access_time = 0.0;  // probe + data wait
  double mean_tuning_time = 0.0;  // buckets actively listened to
  double mean_switches = 0.0;     // channel hops along the pointer path
  /// Fraction of the access time spent listening (1 - doze ratio).
  double listen_fraction = 0.0;

  // Nearest-rank tails over successful clients.
  double p50_access_time = 0.0, p95_access_time = 0.0, p99_access_time = 0.0;
  double p50_data_wait = 0.0, p95_data_wait = 0.0, p99_data_wait = 0.0;
  double p50_tuning_time = 0.0, p95_tuning_time = 0.0, p99_tuning_time = 0.0;

  // Fault and recovery telemetry (all zero on a lossless medium).
  uint64_t buckets_lost = 0;
  uint64_t buckets_corrupted = 0;
  uint64_t retries = 0;
  uint64_t cycle_restarts = 0;
  uint64_t sequential_scans = 0;

  /// Broadcast slots each shard's clients span — from the shard's earliest
  /// arrival slot to the latest slot any of its clients listened to,
  /// inclusive — summed over shards.
  uint64_t slots_processed = 0;
  /// Largest absolute slot any client finished or gave up at.
  int64_t last_slot = 0;

  /// Engine draws: per-client query streams summed, and per-client fault
  /// streams summed. With the seed these pin every consumed random prefix.
  uint64_t rng_query_draws = 0;
  uint64_t rng_fault_draws = 0;

  /// Order-sensitive hash over (success, probe_wait, data_wait, tuning,
  /// switches) in client-id order — THE bit-stability witness: identical
  /// seeds must produce identical digests for every shard and thread count.
  uint64_t digest = 0;

  int shards_used = 0;
  /// Workers that ran the shards: min(threads, shards_used).
  int threads_used = 0;
};

/// Simulates a client population against one broadcast program. The tree
/// (and nothing else) must outlive the simulator.
class PopulationSimulator {
 public:
  /// Cap on the auto shard count, and on PopSimOptions::num_threads: more
  /// threads than auto shards could never all be busy, and an unbounded
  /// count would ask the OS for that many threads.
  static constexpr int kMaxAutoShards = 512;

  /// Errors if the schedule is infeasible for the tree.
  static Result<PopulationSimulator> Create(const IndexTree& tree,
                                            const BroadcastSchedule& schedule);

  /// Replicated-program variant (index replicas shorten probe and retries).
  static Result<PopulationSimulator> Create(const IndexTree& tree,
                                            const ReplicatedProgram& program);

  /// Runs the whole population to completion. When `per_client` is non-null
  /// it receives every client's terminal outcome in id order (sized
  /// population.num_clients) — the differential test's hook. Errors on an
  /// invalid spec or a failed worker task.
  Result<PopReport> Run(const PopSimOptions& options,
                        std::vector<ClientOutcome>* per_client = nullptr) const;

  int num_channels() const { return sim_.num_channels(); }
  int64_t cycle_length() const { return sim_.cycle_length(); }

 private:
  struct ShardStats;  // per-shard counters (popsim.cc)

  explicit PopulationSimulator(ClientSimulator sim) : sim_(std::move(sim)) {}

  // Runs clients [begin, end) to completion in id order, in blocks of a
  // fixed width: the block's keyed streams, seeded together, and their
  // workload draws, then the faulty clients' kFault streams, seeded
  // together, then one AccessOnce per client. With
  // `record_histograms`, also counts the successful clients' data waits and
  // tuning times into the shard's histogram batches.
  void RunShard(uint64_t begin, uint64_t end, const PopSimOptions& options,
                const PopulationSampler& sampler, const Rng& base,
                bool record_histograms, ClientOutcome* fleet,
                ShardStats* stats) const;

  ClientSimulator sim_;
};

}  // namespace bcast

#endif  // BCAST_POPSIM_POPSIM_H_
