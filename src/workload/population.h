// Population generators for the population simulator (src/popsim/).
//
// A population is a fleet of independent clients, each posing one query
// against a broadcast program. Every per-client random quantity is drawn from
// that client's own Rng — derived as Substream(RngStream::kClient, client_id)
// of the run seed — so a population is reproducible client-by-client no
// matter how the fleet is sharded across threads. The draw order per client
// is part of the popsim contract (popsim/popsim.h): the query target first
// (one engine draw, an upper-bound search of the cumulative interest
// weights), then the arrival time (one draw), then any population-model
// extras.
//
// Knobs beyond the paper's uniform-arrival model:
//   * interest mix — targets drawn by tree weight (the paper's workload), by
//     Zipf(theta) popularity over the data nodes in DataNodes() order, or
//     uniformly;
//   * arrival horizon — arrivals uniform over H cycles. A Poisson arrival
//     process conditioned on the population size over a fixed window IS a set
//     of i.i.d. uniform arrivals, so this models Poisson arrivals/churn-in
//     without coupling clients to each other (which would break per-client
//     determinism);
//   * dozing fraction — a deterministic id-keyed subset of clients sleeps an
//     extra U{1..max_doze_cycles} whole cycles before tuning in;
//   * degraded fraction — a deterministic id-keyed subset of clients listens
//     through a second, worse fault model (per-client loss regimes).

#ifndef BCAST_WORKLOAD_POPULATION_H_
#define BCAST_WORKLOAD_POPULATION_H_

#include <cstdint>
#include <vector>

#include "tree/index_tree.h"
#include "util/rng.h"
#include "util/status.h"

namespace bcast {

/// Shape of a simulated client population.
struct PopulationSpec {
  uint64_t num_clients = 1000;

  /// How a client's query target is drawn.
  enum class Interest {
    kTreeWeights,  // proportional to the tree's data weights (paper workload)
    kZipf,         // Zipf(zipf_theta) by DataNodes() order
    kUniform,      // every data node equally likely
  };
  Interest interest = Interest::kTreeWeights;
  double zipf_theta = 0.8;

  /// Arrivals are uniform over [0, arrival_horizon_cycles * cycle) — the
  /// Poisson-process arrival pattern conditioned on the population size.
  /// 1 = every client arrives within the first cycle (the paper's model).
  int arrival_horizon_cycles = 1;

  /// Fraction of clients (selected by a deterministic id hash) that doze an
  /// extra UniformInt(1, max_doze_cycles) whole cycles before their first
  /// probe. 0 disables dozing and the extra draw.
  double doze_fraction = 0.0;
  int max_doze_cycles = 0;

  /// Fraction of clients (deterministic id hash) simulated under the
  /// degraded fault model instead of the base one.
  double degraded_fraction = 0.0;

  /// Parameter ranges; errors name the offending field.
  Status Validate() const;
};

/// Draws per-client workload quantities for one population. Create once per
/// run; DrawClient is const and safe to call concurrently from the shard
/// tasks (each with its own per-client Rng).
class PopulationSampler {
 public:
  /// Errors if the spec fails Validate(). `tree` is finalized, so it has
  /// data nodes of positive total weight.
  static Result<PopulationSampler> Create(const IndexTree& tree,
                                          const PopulationSpec& spec);

  struct ClientDraw {
    NodeId target = kInvalidNode;
    double arrival = 0.0;   // absolute arrival time in slots
    bool degraded = false;  // listens through the degraded fault model
  };

  /// Draws client `client_id`'s query and arrival from `rng` (the client's
  /// own stream, positioned at its start). `cycle_length` is the program's
  /// cycle in slots.
  ClientDraw DrawClient(uint64_t client_id, Rng* rng,
                        int64_t cycle_length) const;

 private:
  PopulationSampler(const IndexTree& tree, const PopulationSpec& spec);

  PopulationSpec spec_;
  // Cumulative interest weights over data_nodes_ (DataNodes() order); a
  // target is one draw scaled to the total, found by upper_bound.
  std::vector<NodeId> data_nodes_;
  std::vector<double> cumulative_;
};

}  // namespace bcast

#endif  // BCAST_WORKLOAD_POPULATION_H_
