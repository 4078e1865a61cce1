// Input generators of the three workloads. Every input a run uses is made
// here, and the same --seed gives the same inputs. Each generator says what
// the seed draws and what stays the same for every seed.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "popsim/popsim.h"
#include "tree/alphabetic.h"
#include "tree/index_tree.h"
#include "util/status.h"

namespace perfbench {

/// Derives an independent 64-bit seed from (seed, tag, index) (splitmix64).
uint64_t MixSeed(uint64_t seed, uint64_t tag, uint64_t index);

// ---- plan_exact -----------------------------------------------------------

/// One exact-planning request: a random index tree and a channel count.
struct PlanInstance {
  bcast::IndexTree tree;
  int channels = 2;
};

/// Requests per plan_exact pass.
inline constexpr int kPlanStreamLength = 1200;

/// The plan_exact request stream: the same `count` trees for every seed, in
/// an order the seed shuffles. Tree i has a fixed shape class — data leaves
/// in 10..15, max fanout 2..3, channels 2..3, cycling through all 24
/// combinations. The trees are fixed because a handful of near-chain trees
/// set the p99, and drawing them from the seed moved it by a third between
/// seeds.
std::vector<PlanInstance> MakePlanStream(uint64_t seed, int count);

// ---- popsim_fleet ---------------------------------------------------------

inline constexpr int kFleetCatalogItems = 256;
inline constexpr double kFleetZipfTheta = 0.9;
inline constexpr int kFleetFanout = 4;
inline constexpr int kFleetChannels = 3;
/// A pass simulates kFleetsPerPass independent fleets of kClientsPerFleet
/// clients: a million clients per pass.
inline constexpr int kFleetsPerPass = 20;
inline constexpr uint64_t kClientsPerFleet = 50'000;
inline constexpr int kFleetThreads = 2;

/// 256 items with Zipf(0.9) weights in key order. The program is the same
/// for every seed; the seed draws the clients.
std::vector<bcast::DataItem> MakeFleetCatalog();

/// Population, media and seed of fleet `index` of a pass: tree-weight (so
/// Zipf) interests, a 4-cycle arrival horizon, a dozing fifth of the fleet,
/// 1% Bernoulli loss with corruption on every channel, and a degraded 5% on
/// a Gilbert–Elliott burst medium. Runs on kFleetThreads workers.
bcast::Result<bcast::PopSimOptions> MakeFleetOptions(uint64_t seed, int index);

// ---- serve_adaptive -------------------------------------------------------

inline constexpr int kServeItems = 18;
inline constexpr double kServeZipfTheta = 0.9;
inline constexpr int kServeFanout = 3;
inline constexpr int kServeChannels = 2;
/// Cycles per serve_adaptive pass (p90 needs at least 100).
inline constexpr int kServeCyclesPerPass = 100;
inline constexpr int kServeRequestsPerCycle = 2000;
inline constexpr double kServeEstimatorDecay = 0.5;
inline constexpr uint64_t kServeClientsPerCycle = 10'000;

/// Every kServeDriftEvery cycles the true popularity ranking rotates by one
/// item (what `bcastctl simulate --drift-every` does).
inline constexpr int kServeDriftEvery = 10;

/// The seeded streams of one serve_adaptive pass. The catalog (Zipf(0.9) in
/// key order) and its drift are the same for every seed, so seeds change the
/// requests and clients, not how hard the plans are.
struct ServeScript {
  /// True request weights at cycle 0.
  std::vector<double> initial_weights;
  /// Seeds the requests drawn from the true weights.
  uint64_t request_seed = 0;
  /// Seeds cycle c's client population: MixSeed(population_seed, 0, c).
  uint64_t population_seed = 0;
};

ServeScript MakeServeScript(uint64_t seed);

/// Applies the drift due after cycle `cycle` ends.
void DriftAfterCycle(int cycle, std::vector<double>* weights);

/// Catalog labels "item0".."itemN-1" carrying `weights`.
std::vector<bcast::DataItem> CatalogItems(const std::vector<double>& weights);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
