#include "sim/client_sim.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "broadcast/pointers.h"
#include "util/check.h"

namespace bcast {

namespace {

void RecordFault(BucketOutcome got, RecoveryTally* tally) {
  if (got == BucketOutcome::kLost) {
    ++tally->buckets_lost;
  } else if (got == BucketOutcome::kCorrupted) {
    ++tally->buckets_corrupted;
  }
}

}  // namespace

Result<ClientSimulator> ClientSimulator::Create(
    const IndexTree& tree, const BroadcastSchedule& schedule) {
  // Materialization both validates feasibility and yields the pointer table
  // the grid is cross-checked against below.
  auto pointers = MaterializePointers(tree, schedule);
  if (!pointers.ok()) return pointers.status();

  ClientSimulator sim(tree, /*replicated=*/false);
  sim.num_channels_ = schedule.num_channels();
  sim.cycle_length_ = schedule.num_slots();
  sim.occurrences_.assign(static_cast<size_t>(tree.num_nodes()), {});
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    SlotRef ref = schedule.placement(id);
    sim.occurrences_[static_cast<size_t>(id)].push_back({ref.slot, ref.channel});
  }
  sim.grid_.assign(static_cast<size_t>(sim.num_channels_),
                   std::vector<NodeId>(static_cast<size_t>(sim.cycle_length_),
                                       kInvalidNode));
  for (int c = 0; c < sim.num_channels_; ++c) {
    for (int s = 0; s < sim.cycle_length_; ++s) {
      sim.grid_[static_cast<size_t>(c)][static_cast<size_t>(s)] =
          schedule.at(c, s);
    }
  }
  // Every advertised pointer must land exactly on its target's bucket; a
  // mismatch means the materialization and the grid disagree (memory
  // corruption or a refactoring bug), which no simulation should paper over.
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    SlotRef parent_ref = schedule.placement(id);
    for (const BucketPointer& ptr :
         pointers->pointers[static_cast<size_t>(id)]) {
      SlotRef target_ref = schedule.placement(ptr.target);
      BCAST_CHECK_EQ(parent_ref.slot + ptr.offset, target_ref.slot)
          << "pointer to '" << tree.label(ptr.target) << "' misses its bucket";
      BCAST_CHECK_EQ(ptr.channel, target_ref.channel);
    }
  }
  sim.BuildPaths();
  return sim;
}

Result<ClientSimulator> ClientSimulator::Create(
    const IndexTree& tree, const ReplicatedProgram& program) {
  BCAST_RETURN_IF_ERROR(ValidateReplicatedProgram(tree, program));

  ClientSimulator sim(tree, /*replicated=*/true);
  sim.num_channels_ = program.num_channels;
  sim.cycle_length_ = program.cycle_length;
  sim.grid_ = program.grid;
  sim.occurrences_.assign(static_cast<size_t>(tree.num_nodes()), {});
  // Slot-major scan keeps each occurrence list sorted by slot.
  for (int s = 0; s < sim.cycle_length_; ++s) {
    for (int c = 0; c < sim.num_channels_; ++c) {
      NodeId node = sim.grid_[static_cast<size_t>(c)][static_cast<size_t>(s)];
      if (node == kInvalidNode) continue;
      sim.occurrences_[static_cast<size_t>(node)].push_back({s, c});
    }
  }
  sim.BuildPaths();
  return sim;
}

ClientSimulator::ClientSimulator(const IndexTree& tree, bool replicated)
    : tree_(tree), replicated_(replicated) {}

void ClientSimulator::BuildPaths() {
  paths_.assign(static_cast<size_t>(tree_.num_nodes()), {});
  for (NodeId id = 0; id < tree_.num_nodes(); ++id) {
    if (!tree_.is_data(id)) continue;
    std::vector<NodeId> path = tree_.AncestorsOf(id);
    path.push_back(id);
    paths_[static_cast<size_t>(id)] = std::move(path);
  }
}

ClientSimulator::Occurrence ClientSimulator::NextOccurrence(
    NodeId node, int64_t time, int64_t* abs_slot) const {
  const int64_t cycle = cycle_length_;
  const int64_t base = (time / cycle) * cycle;
  int64_t best = std::numeric_limits<int64_t>::max();
  Occurrence best_occ;
  for (const Occurrence& occ : occurrences_[static_cast<size_t>(node)]) {
    int64_t abs = base + occ.slot;
    if (abs < time) abs += cycle;
    if (abs < best) {
      best = abs;
      best_occ = occ;
    }
  }
  BCAST_CHECK(best_occ.slot >= 0) << "node '" << tree_.label(node)
                                  << "' never airs";
  *abs_slot = best;
  return best_occ;
}

int64_t ClientSimulator::NextCycleStart(int64_t time) const {
  const int64_t cycle = cycle_length_;
  return ((time + cycle - 1) / cycle) * cycle;
}

ClientOutcome ClientSimulator::AccessOnce(NodeId target, double arrival,
                                          FaultProcess* medium,
                                          const RecoveryOptions& recovery,
                                          RecoveryTally* tally) const {
  ClientOutcome out;
  const int64_t cycle = cycle_length_;
  int last_channel = 0;  // the client starts on the first channel

  // Phase 1: probe — read any first-channel bucket (each carries the pointer
  // that locates the root). On a fault the next bucket of the channel is
  // tried; the budget bounds a fully dead medium.
  int64_t probe_slot = static_cast<int64_t>(arrival);
  const int64_t probe_limit =
      probe_slot + (static_cast<int64_t>(recovery.max_cycle_restarts) + 1) *
                       cycle;
  bool probe_ok = false;
  for (bool first = true; probe_slot <= probe_limit; ++probe_slot) {
    if (!first) ++tally->retries;
    first = false;
    ++out.tuning;
    out.last_slot = probe_slot;
    BucketOutcome got =
        medium ? medium->Observe(0, probe_slot) : BucketOutcome::kOk;
    if (got == BucketOutcome::kOk) {
      probe_ok = true;
      break;
    }
    RecordFault(got, tally);
  }
  // Where the pointer walk starts. A plain client dozes to the advertised
  // next cycle start; a replicated program's probe bucket points at the next
  // root occurrence directly, so the walk starts immediately. A client whose
  // probe budget died entirely skips the index and degrades straight to the
  // sequential scan (the scan needs no pointers).
  int64_t p;
  double probe_ref = -1.0;  // instant the data wait is measured from
  if (!probe_ok) {
    p = probe_slot;
  } else if (replicated_) {
    p = probe_slot + 1;  // probe_ref fixed at the first successful root read
  } else {
    p = (probe_slot / cycle + 1) * cycle;
    probe_ref = static_cast<double>(p);
  }

  // Phase 2: descend the pointer chain root -> ... -> target, retrying each
  // unusable bucket at the node's next occurrence, backing off to the next
  // cycle start when a hop exhausts its retries. Every backoff and the scan
  // below resume after out.last_slot: the fault process requires per-channel
  // observations to move forward in time, and failed retries push the last
  // observed slot past `p` (the slot after the last *successful* read).
  const std::vector<NodeId>& path = paths_[static_cast<size_t>(target)];
  BCAST_DCHECK(!path.empty()) << "query target must be a data node";
  int64_t finish = -1;
  int restarts = 0;
  size_t hop = 0;
  bool walking = probe_ok;
  while (walking && finish < 0) {
    NodeId node = path[hop];
    int failures = 0;
    int64_t t = p;
    bool advanced = false;
    while (true) {
      int64_t abs = 0;
      Occurrence occ = NextOccurrence(node, t, &abs);
      out.last_slot = abs;
      ++out.tuning;
      if (occ.channel != last_channel) {
        ++out.switches;
        last_channel = occ.channel;
      }
      BucketOutcome got =
          medium ? medium->Observe(occ.channel, abs) : BucketOutcome::kOk;
      if (got == BucketOutcome::kOk) {
        p = abs + 1;
        if (replicated_ && hop == 0 && probe_ref < 0.0) {
          probe_ref = static_cast<double>(p);
        }
        ++hop;
        if (hop == path.size()) finish = p;
        advanced = true;
        break;
      }
      RecordFault(got, tally);
      ++failures;
      if (failures > recovery.max_retries_per_hop) break;
      ++tally->retries;
      t = abs + 1;  // the node's next occurrence (a replica or next cycle)
    }
    if (advanced) continue;

    if (restarts < recovery.max_cycle_restarts) {
      // Backoff: the chain is broken; doze to the next cycle start and
      // restart the descent from the root.
      ++restarts;
      ++tally->cycle_restarts;
      p = NextCycleStart(out.last_slot + 1);
      hop = 0;
      continue;
    }
    walking = false;  // pointers exhausted: degrade to a sequential scan
  }

  // Phase 3: graceful degradation — scan the cycle channel by channel,
  // listening to every bucket, until the target arrives intact.
  int64_t scan_start = -1;
  if (finish < 0) {
    ++tally->sequential_scans;
    scan_start = NextCycleStart(out.last_slot + 1);
    for (int pass = 0; pass < recovery.max_scan_passes && finish < 0; ++pass) {
      for (int c = 0; c < num_channels_ && finish < 0; ++c) {
        if (c != last_channel) {
          ++out.switches;
          last_channel = c;
        }
        const int64_t block =
            scan_start +
            (static_cast<int64_t>(pass) * num_channels_ + c) * cycle;
        for (int s = 0; s < cycle_length_; ++s) {
          const int64_t abs = block + s;
          ++out.tuning;
          out.last_slot = abs;
          BucketOutcome got =
              medium ? medium->Observe(c, abs) : BucketOutcome::kOk;
          if (got != BucketOutcome::kOk) {
            RecordFault(got, tally);
            continue;
          }
          if (grid_[static_cast<size_t>(c)]
                   [static_cast<size_t>(abs % cycle)] == target) {
            finish = abs + 1;
            break;
          }
        }
      }
    }
    if (finish < 0) return out;  // every fallback exhausted: report failure
  }

  if (probe_ref < 0.0) {
    // The index was never read intact (the scan delivered the data); anchor
    // the probe wait at the probe bucket's end, or at the scan start when
    // even the probe died.
    probe_ref = probe_ok ? static_cast<double>(probe_slot + 1)
                         : static_cast<double>(scan_start);
  }
  out.success = true;
  out.probe_wait = probe_ref - arrival;
  out.data_wait = static_cast<double>(finish) - probe_ref;
  return out;
}

}  // namespace bcast
