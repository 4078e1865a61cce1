#include "alloc/replication.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "broadcast/schedule_builder.h"
#include "util/check.h"

namespace bcast {

namespace {

// The replica block: the index nodes of the top `levels` tree levels, packed
// level-major into columns of at most `num_channels` nodes. Level boundaries
// never share a column, so within a block every child airs strictly after
// its parent.
std::vector<std::vector<NodeId>> MakeReplicaBlock(const IndexTree& tree,
                                                  int levels,
                                                  int num_channels) {
  std::vector<std::vector<NodeId>> block;
  auto level_nodes = tree.LevelNodes();
  for (int level = 0; level < levels && level < tree.depth(); ++level) {
    std::vector<NodeId> column;
    for (NodeId id : level_nodes[static_cast<size_t>(level)]) {
      if (!tree.is_index(id)) continue;  // data is never replicated
      column.push_back(id);
      if (static_cast<int>(column.size()) == num_channels) {
        block.push_back(std::move(column));
        column.clear();
      }
    }
    if (!column.empty()) block.push_back(std::move(column));
  }
  return block;
}

}  // namespace

Result<ReplicatedProgram> BuildReplicatedProgram(
    const IndexTree& tree, const SlotSequence& slots, int num_channels,
    const ReplicationOptions& options) {
  if (options.root_copies < 1) {
    return InvalidArgumentError("root_copies must be >= 1");
  }
  if (options.replicate_levels < 1) {
    return InvalidArgumentError("replicate_levels must be >= 1");
  }
  BCAST_RETURN_IF_ERROR(ValidateSlotSequence(tree, num_channels, slots));
  auto base = BuildScheduleFromSlots(tree, num_channels, slots);
  if (!base.ok()) return base.status();
  const BroadcastSchedule& schedule = *base;
  const int base_length = schedule.num_slots();
  if (options.root_copies > base_length) {
    return InvalidArgumentError(
        "cannot fit " + std::to_string(options.root_copies) +
        " replica blocks into a " + std::to_string(base_length) +
        "-slot cycle");
  }

  const int copies = options.root_copies;
  const std::vector<std::vector<NodeId>> block =
      MakeReplicaBlock(tree, options.replicate_levels, num_channels);
  BCAST_CHECK(!block.empty());
  const int block_length = static_cast<int>(block.size());
  const int length = base_length + (copies - 1) * block_length;

  // Insertion points in base-slot coordinates: the i-th extra block airs
  // just before base slot insert_after[i], at even spacing.
  std::vector<int> insert_after;
  int previous = 0;
  for (int i = 1; i < copies; ++i) {
    int desired =
        static_cast<int>((static_cast<int64_t>(i) * base_length) / copies);
    int position = std::max(previous + 1, desired);
    BCAST_CHECK_LE(position, base_length);
    insert_after.push_back(position);
    previous = position;
  }

  ReplicatedProgram program;
  program.num_channels = num_channels;
  program.cycle_length = length;
  program.grid.assign(
      static_cast<size_t>(num_channels),
      std::vector<NodeId>(static_cast<size_t>(length), kInvalidNode));
  program.primary.assign(static_cast<size_t>(tree.num_nodes()), SlotRef{});
  program.occurrences.assign(static_cast<size_t>(tree.num_nodes()), {});

  int out = 0;
  size_t next_block = 0;
  auto emit_block = [&]() {
    for (const std::vector<NodeId>& column : block) {
      for (size_t c = 0; c < column.size(); ++c) {
        program.grid[c][static_cast<size_t>(out)] = column[c];
        program.occurrences[static_cast<size_t>(column[c])].push_back(out);
      }
      ++out;
    }
  };
  for (int base_slot = 0; base_slot < base_length; ++base_slot) {
    if (next_block < insert_after.size() &&
        insert_after[next_block] == base_slot) {
      emit_block();
      ++next_block;
    }
    for (int c = 0; c < num_channels; ++c) {
      NodeId node = schedule.at(c, base_slot);
      if (node == kInvalidNode) continue;
      program.grid[static_cast<size_t>(c)][static_cast<size_t>(out)] = node;
      program.primary[static_cast<size_t>(node)] = {c, out};
      program.occurrences[static_cast<size_t>(node)].push_back(out);
    }
    ++out;
  }
  // Blocks that land after the last base slot (insert_after == base_length).
  while (next_block < insert_after.size()) {
    emit_block();
    ++next_block;
  }
  BCAST_CHECK_EQ(out, length);

  for (auto& occurrence_list : program.occurrences) {
    std::sort(occurrence_list.begin(), occurrence_list.end());
  }
  program.root_slots = program.occurrences[static_cast<size_t>(tree.root())];
  // Debug builds re-validate the assembled program (occurrence counts, grid
  // consistency, primary-copy ordering) before handing it out.
  BCAST_DCHECK_OK(ValidateReplicatedProgram(tree, program));
  return program;
}

Status ValidateReplicatedProgram(const IndexTree& tree,
                                 const ReplicatedProgram& program) {
  if (program.num_channels < 1 || program.cycle_length < 1) {
    return FailedPreconditionError("empty replicated program");
  }
  std::vector<int> grid_occurrences(static_cast<size_t>(tree.num_nodes()), 0);
  for (int c = 0; c < program.num_channels; ++c) {
    const auto& channel = program.grid[static_cast<size_t>(c)];
    if (static_cast<int>(channel.size()) != program.cycle_length) {
      return InternalError("ragged replicated grid");
    }
    for (NodeId node : channel) {
      if (node == kInvalidNode) continue;
      if (node < 0 || node >= tree.num_nodes()) {
        return InternalError("unknown node in replicated grid");
      }
      ++grid_occurrences[static_cast<size_t>(node)];
    }
  }
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    const auto& occurrence_list = program.occurrences[static_cast<size_t>(id)];
    if (grid_occurrences[static_cast<size_t>(id)] !=
        static_cast<int>(occurrence_list.size())) {
      return InternalError("occurrence list of '" + tree.label(id) +
                           "' does not match the grid");
    }
    if (occurrence_list.empty()) {
      return FailedPreconditionError("node '" + tree.label(id) +
                                     "' never airs");
    }
    if (tree.is_data(id) && occurrence_list.size() != 1) {
      return FailedPreconditionError("data node '" + tree.label(id) +
                                     "' is replicated");
    }
    if (!std::is_sorted(occurrence_list.begin(), occurrence_list.end())) {
      return InternalError("unsorted occurrence list");
    }
    SlotRef primary = program.primary[static_cast<size_t>(id)];
    if (!primary.placed() ||
        program.grid[static_cast<size_t>(primary.channel)]
                    [static_cast<size_t>(primary.slot)] != id) {
      return InternalError("primary placement of '" + tree.label(id) +
                           "' does not match the grid");
    }
    // Primary copies still respect the tree order (blocks only insert
    // columns, preserving the base schedule's relative order).
    NodeId parent = tree.parent(id);
    if (parent != kInvalidNode &&
        program.primary[static_cast<size_t>(parent)].slot >= primary.slot) {
      return FailedPreconditionError("primary copy of '" + tree.label(id) +
                                     "' does not follow its parent");
    }
  }
  if (program.root_slots.empty() ||
      program.root_slots !=
          program.occurrences[static_cast<size_t>(tree.root())]) {
    return InternalError("root_slots disagrees with the root's occurrences");
  }
  return Status::Ok();
}

namespace {

// Completion time of the earliest occurrence of a node readable from time p:
// bucket [s + jL, s + jL + 1) with the smallest start >= p over all
// occurrence slots s.
double NextOccurrenceEnd(double p, const std::vector<int>& occurrence_slots,
                         int cycle) {
  double best = std::numeric_limits<double>::infinity();
  for (int s : occurrence_slots) {
    double start = s;
    if (start < p) {
      start += std::ceil((p - start) / cycle) * cycle;
    }
    best = std::min(best, start + 1.0);
  }
  return best;
}

// Walks the pointer chain root -> ... -> d starting right after a root
// bucket was read at time `probe_end`; each hop takes the earliest readable
// occurrence of the next node.
double WalkToData(const IndexTree& tree, const ReplicatedProgram& program,
                  NodeId d, double probe_end, int* hops) {
  std::vector<NodeId> path = tree.AncestorsOf(d);
  path.push_back(d);
  double p = probe_end;
  *hops = 0;
  for (size_t i = 1; i < path.size(); ++i) {  // path[0] is the root, read
    p = NextOccurrenceEnd(p, program.occurrences[static_cast<size_t>(path[i])],
                          program.cycle_length);
    ++*hops;
  }
  return p;
}

// The first root bucket fully readable when starting to listen at time t.
double FirstRootEnd(const ReplicatedProgram& program, double t) {
  for (int s : program.root_slots) {
    if (static_cast<double>(s) >= t) return s + 1.0;
  }
  return program.root_slots.front() + program.cycle_length + 1.0;
}

}  // namespace

ReplicatedCosts ComputeReplicatedCosts(const IndexTree& tree,
                                       const ReplicatedProgram& program) {
  BCAST_CHECK(ValidateReplicatedProgram(tree, program).ok());
  const int length = program.cycle_length;
  const double total_weight = tree.total_data_weight();
  BCAST_CHECK_GT(total_weight, 0.0);

  ReplicatedCosts costs;
  // Arrival uniform over the cycle: within the interval (a, a+1) the first
  // usable root bucket is constant (determined by a+1), and the mean arrival
  // is a + 0.5 — so integrating per unit interval is exact.
  for (int a = 0; a < length; ++a) {
    double arrival = a + 0.5;
    double probe_end = FirstRootEnd(program, a + 1.0);
    costs.expected_probe_wait += probe_end - arrival;
    for (NodeId d : tree.DataNodes()) {
      int hops = 0;
      double done = WalkToData(tree, program, d, probe_end, &hops);
      double share = tree.weight(d) / total_weight;
      costs.expected_walk_time += share * (done - probe_end);
      costs.expected_access_time += share * (done - arrival);
      // Buckets listened: the initial channel-1 bucket that supplied the
      // next-root pointer, the root bucket, and every hop.
      costs.expected_tuning_time += share * (2.0 + hops);
    }
  }
  costs.expected_probe_wait /= length;
  costs.expected_walk_time /= length;
  costs.expected_access_time /= length;
  costs.expected_tuning_time /= length;
  return costs;
}

}  // namespace bcast
