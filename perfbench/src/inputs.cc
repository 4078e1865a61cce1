#include "inputs.h"

#include <algorithm>
#include <string>

#include "fault/fault_model.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "workload/weights.h"

namespace perfbench {

namespace {

// Tags of the MixSeed streams, so no two generators share draws.
constexpr uint64_t kPlanTag = 1;
constexpr uint64_t kFleetTag = 2;
constexpr uint64_t kServeTag = 3;
// The plan_exact trees are the same for every run seed.
constexpr uint64_t kPlanCorpusSeed = 0x1CDE2000;

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t tag, uint64_t index) {
  uint64_t z = seed ^ (tag * 0x9E3779B97F4A7C15ull) ^
               (index * 0xD1B54A32D192ED03ull);
  for (int round = 0; round < 2; ++round) {
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
  }
  return z;
}

std::vector<PlanInstance> MakePlanStream(uint64_t seed, int count) {
  std::vector<PlanInstance> stream;
  stream.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int shape = i % 24;
    const int leaves = 10 + shape % 6;
    const int fanout = 2 + (shape / 6) % 2;
    const int channels = 2 + shape / 12;
    bcast::Rng rng(
        MixSeed(kPlanCorpusSeed, kPlanTag, static_cast<uint64_t>(i)));
    stream.push_back({bcast::MakeRandomTree(&rng, leaves, fanout), channels});
  }
  bcast::Rng order(MixSeed(seed, kPlanTag, 0));
  order.Shuffle(&stream);
  return stream;
}

std::vector<bcast::DataItem> CatalogItems(const std::vector<double>& weights) {
  std::vector<bcast::DataItem> items;
  items.reserve(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    items.push_back({"item" + std::to_string(i), weights[i]});
  }
  return items;
}

std::vector<bcast::DataItem> MakeFleetCatalog() {
  return CatalogItems(bcast::ZipfWeights(kFleetCatalogItems, kFleetZipfTheta));
}

bcast::Result<bcast::PopSimOptions> MakeFleetOptions(uint64_t seed,
                                                     int index) {
  bcast::PopSimOptions options;
  options.population.num_clients = kClientsPerFleet;
  options.population.interest = bcast::PopulationSpec::Interest::kTreeWeights;
  options.population.arrival_horizon_cycles = 4;
  options.population.doze_fraction = 0.2;
  options.population.max_doze_cycles = 2;
  options.population.degraded_fraction = 0.05;

  bcast::ChannelLossSpec bernoulli;
  bernoulli.kind = bcast::LossModelKind::kBernoulli;
  bernoulli.loss_prob = 0.01;
  bernoulli.corrupt_fraction = 0.25;
  auto faults = bcast::FaultModel::CreateUniform(kFleetChannels, bernoulli);
  if (!faults.ok()) return faults.status();
  options.faults = *std::move(faults);

  bcast::ChannelLossSpec burst;
  burst.kind = bcast::LossModelKind::kGilbertElliott;
  burst.p_good_to_bad = 0.05;
  burst.p_bad_to_good = 0.4;
  burst.loss_good = 0.005;
  burst.loss_bad = 0.8;
  burst.corrupt_fraction = 0.2;
  auto degraded = bcast::FaultModel::CreateUniform(kFleetChannels, burst);
  if (!degraded.ok()) return degraded.status();
  options.degraded_faults = *std::move(degraded);

  options.seed = MixSeed(seed, kFleetTag, static_cast<uint64_t>(index));
  options.num_threads = kFleetThreads;
  return options;
}

ServeScript MakeServeScript(uint64_t seed) {
  ServeScript script;
  script.initial_weights = bcast::ZipfWeights(kServeItems, kServeZipfTheta);
  script.request_seed = MixSeed(seed, kServeTag, 0);
  script.population_seed = MixSeed(seed, kServeTag, 1);
  return script;
}

void DriftAfterCycle(int cycle, std::vector<double>* weights) {
  if ((cycle + 1) % kServeDriftEvery == 0) {
    std::rotate(weights->begin(), weights->begin() + 1, weights->end());
  }
}

}  // namespace perfbench
