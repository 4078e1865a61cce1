// The tests' one way to run simulated clients against a program.

#ifndef BCAST_TESTS_MUST_SIMULATE_H_
#define BCAST_TESTS_MUST_SIMULATE_H_

#include <gtest/gtest.h>

#include <cstdint>

#include "fault/fault_model.h"
#include "popsim/popsim.h"
#include "sim/client_sim.h"

namespace bcast {

// `num_clients` clients of the default population (tree-weight targets,
// arrivals over one cycle) under run seed `seed`, through `faults` with the
// recovery ladder `recovery`.
inline PopReport MustSimulate(const PopulationSimulator& sim,
                              uint64_t num_clients, uint64_t seed,
                              const FaultModel& faults = {},
                              const RecoveryOptions& recovery = {}) {
  PopSimOptions options;
  options.population.num_clients = num_clients;
  options.seed = seed;
  options.faults = faults;
  options.recovery = recovery;
  auto report = sim.Run(options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? *report : PopReport{};
}

}  // namespace bcast

#endif  // BCAST_TESTS_MUST_SIMULATE_H_
