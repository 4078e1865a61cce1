// E8 — extension (the paper's second future-work item): root replication
// inside a broadcast cycle.
//
// Sweeps the number of root copies on a mid-size Zipf catalog and reports
// the exact expected probe wait / access time / tuning time (cross-checked
// against a simulated client population). Expected shape: the probe wait collapses
// ~1/copies while the access time only inflates with the inserted columns —
// replicating the root buys the client a much earlier index read (it can
// doze with certainty sooner), not a faster download of the fixed data
// buckets.

#include <cstdio>
#include <string>
#include <vector>

#include "alloc/heuristics.h"
#include "alloc/replication.h"
#include "popsim/popsim.h"
#include "tree/alphabetic.h"
#include "util/rng.h"
#include "workload/weights.h"

int main() {
  // 150-item Zipf catalog, greedy 3-ary alphabetic index, sorting-heuristic
  // base allocation over 2 channels.
  std::vector<double> weights = bcast::ZipfWeights(150, 1.0, 10'000.0);
  bcast::Rng rng(606);
  rng.Shuffle(&weights);
  std::vector<bcast::DataItem> items;
  for (size_t i = 0; i < weights.size(); ++i) {
    items.push_back({"d" + std::to_string(i), weights[i]});
  }
  auto tree = bcast::BuildGreedyAlphabeticTree(items, 3);
  if (!tree.ok()) return 1;
  auto base = bcast::SortingHeuristic(*tree, 2);
  if (!base.ok()) return 1;

  std::printf("=== E8: index replication trade-off (150-item Zipf catalog, "
              "2 channels) ===\n\n");
  std::printf("%-7s  %-7s  %-7s  %-12s  %-12s  %-12s  %-10s\n", "copies",
              "levels", "cycle", "probe wait", "access time", "tuning",
              "sim access");

  for (int levels : {1, 2, 3}) {
    for (int copies : {1, 2, 4, 8, 16, 32}) {
      auto program = bcast::BuildReplicatedProgram(
          *tree, base->slots, 2,
          {.root_copies = copies, .replicate_levels = levels});
      if (!program.ok()) {
        std::printf("%-7d  %-7d  %s\n", copies, levels,
                    program.status().ToString().c_str());
        continue;
      }
      bcast::ReplicatedCosts costs =
          bcast::ComputeReplicatedCosts(*tree, *program);
      auto sim = bcast::PopulationSimulator::Create(*tree, *program);
      if (!sim.ok()) return 1;
      bcast::PopSimOptions sim_options;
      sim_options.population.num_clients = 100'000;
      sim_options.seed = 1234;
      auto report = sim->Run(sim_options);
      if (!report.ok()) return 1;
      std::printf("%-7d  %-7d  %-7d  %-12.2f  %-12.2f  %-12.2f  %-10.2f\n",
                  copies, levels, program->cycle_length,
                  costs.expected_probe_wait, costs.expected_access_time,
                  costs.expected_tuning_time, report->mean_access_time);
    }
    std::printf("\n");
  }

  std::printf("\nexpected shape: probe wait ~ cycle/(2·copies) + 1. Access "
              "time shows a mild\nU-shape: the first few copies let late "
              "arrivals start navigating within the\ncurrent cycle (removing "
              "the wait-for-cycle-start synchronization), then the\ninserted "
              "columns inflate the cycle and access degrades. Tuning time is\n"
              "unaffected. Analytic and simulated access agree.\n");
  return 0;
}
