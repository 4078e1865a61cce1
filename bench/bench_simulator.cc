// E7 — extension: Monte-Carlo client simulation cross-check.
//
// For the paper's example and for a Zipf catalog, runs the full pipeline
// (plan -> channel assignment -> pointer materialization -> a simulated
// client population) and compares the empirical means against the analytic cost model
// of Section 2.2. Also reports the energy story from the paper's
// introduction: tuning time (buckets listened, ~ energy) versus access time
// (latency), i.e. how long the client can doze.

#include <cstdio>
#include <string>

#include "core/bcast.h"

namespace {

void Simulate(const bcast::IndexTree& tree, const char* name, int channels,
              bcast::PlanStrategy strategy) {
  bcast::PlannerOptions options;
  options.num_channels = channels;
  options.strategy = strategy;
  auto plan = bcast::PlanBroadcast(tree, options);
  if (!plan.ok()) {
    std::printf("%s: planning failed: %s\n", name,
                plan.status().ToString().c_str());
    return;
  }
  auto sim = bcast::PopulationSimulator::Create(tree, plan->schedule);
  if (!sim.ok()) {
    std::printf("%s: simulator failed: %s\n", name,
                sim.status().ToString().c_str());
    return;
  }
  bcast::PopSimOptions sim_options;
  sim_options.population.num_clients = 300'000;
  sim_options.seed = 0xC11E47;
  auto run = sim->Run(sim_options);
  if (!run.ok()) {
    std::printf("%s: simulation failed: %s\n", name,
                run.status().ToString().c_str());
    return;
  }
  const bcast::PopReport& report = *run;

  std::printf("%s  (k=%d, %s, cycle %d slots)\n", name, channels,
              bcast::PlanStrategyName(plan->strategy_used),
              plan->costs.cycle_length);
  std::printf("    data wait   : analytic %8.4f | simulated %8.4f buckets\n",
              plan->costs.average_data_wait, report.mean_data_wait);
  std::printf("    tuning time : analytic %8.4f | simulated %8.4f buckets "
              "(+1 probe bucket)\n",
              plan->costs.average_tuning_time + 1.0, report.mean_tuning_time);
  std::printf("    switches    : analytic %8.4f | simulated %8.4f\n",
              plan->costs.average_switches, report.mean_switches);
  std::printf("    probe wait  : expected %8.4f | simulated %8.4f buckets\n",
              plan->costs.cycle_length / 2.0, report.mean_probe_wait);
  std::printf("    access time : %8.4f buckets; client listens %.1f%% of it "
              "(dozes %.1f%%)\n\n",
              report.mean_access_time, 100.0 * report.listen_fraction,
              100.0 * (1.0 - report.listen_fraction));
}

}  // namespace

int main() {
  std::printf("=== E7: simulator vs analytic cost model ===\n\n");

  bcast::IndexTree example = bcast::MakePaperExampleTree();
  Simulate(example, "paper Fig. 1 example", 1, bcast::PlanStrategy::kOptimal);
  Simulate(example, "paper Fig. 1 example", 2, bcast::PlanStrategy::kOptimal);

  std::vector<double> weights = bcast::ZipfWeights(300, 0.95);
  bcast::Rng shuffle_rng(11);
  shuffle_rng.Shuffle(&weights);
  std::vector<bcast::DataItem> items;
  for (size_t i = 0; i < weights.size(); ++i) {
    items.push_back({"d" + std::to_string(i), weights[i]});
  }
  auto catalog = bcast::BuildOptimalAlphabeticTree(items, 3);
  if (catalog.ok()) {
    Simulate(*catalog, "Zipf catalog (300 items)", 1,
             bcast::PlanStrategy::kSorting);
    Simulate(*catalog, "Zipf catalog (300 items)", 3,
             bcast::PlanStrategy::kSorting);
  }

  std::printf("expected: simulated means match the analytic model to within\n"
              "Monte-Carlo noise; with an index the client dozes through the\n"
              "vast majority of the access time.\n");
  return 0;
}
