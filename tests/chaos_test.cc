// Chaos suite: deterministic task-fault injection (fault/task_fault.h)
// against the planning batch, and the adaptive server's four-stage
// degradation ladder surviving it end to end.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/task_fault.h"
#include "obs/obs.h"
#include "sim/server_sim.h"
#include "util/rng.h"

namespace bcast {
namespace {

TEST(TaskFaultInjectorTest, RejectsBadFractions) {
  TaskFaultOptions options;
  options.fail_fraction = -0.1;
  EXPECT_FALSE(TaskFaultInjector::Create(options).ok());
  options.fail_fraction = 1.5;
  EXPECT_FALSE(TaskFaultInjector::Create(options).ok());
  options.fail_fraction = 0.7;
  options.stall_fraction = 0.5;  // sum > 1
  EXPECT_FALSE(TaskFaultInjector::Create(options).ok());
  options.stall_fraction = 0.3;
  EXPECT_TRUE(TaskFaultInjector::Create(options).ok());
}

TEST(TaskFaultInjectorTest, InactiveByDefault) {
  EXPECT_FALSE(TaskFaultOptions{}.active());
  TaskFaultOptions options;
  options.fail_fraction = 0.01;
  EXPECT_TRUE(options.active());
}

// Runs the injector over [0, n) and returns the set of indices that threw.
std::vector<uint64_t> FaultedIndices(TaskFaultInjector* injector, uint64_t n) {
  std::vector<uint64_t> faulted;
  for (uint64_t i = 0; i < n; ++i) {
    try {
      injector->OnTask(i);
    } catch (const TaskFaultError&) {
      faulted.push_back(i);
    }
  }
  return faulted;
}

TEST(TaskFaultInjectorTest, SameSeedSameFaults) {
  TaskFaultOptions options;
  options.fail_fraction = 0.1;
  options.seed = 42;
  auto a = TaskFaultInjector::Create(options);
  auto b = TaskFaultInjector::Create(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(FaultedIndices(&*a, 2000), FaultedIndices(&*b, 2000));
  EXPECT_EQ(a->fault_count(), b->fault_count());
}

TEST(TaskFaultInjectorTest, DifferentSeedsDifferentFaults) {
  TaskFaultOptions options;
  options.fail_fraction = 0.1;
  options.seed = 1;
  auto a = TaskFaultInjector::Create(options);
  options.seed = 2;
  auto b = TaskFaultInjector::Create(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(FaultedIndices(&*a, 2000), FaultedIndices(&*b, 2000));
}

TEST(TaskFaultInjectorTest, FailFractionIsRoughlyHonored) {
  TaskFaultOptions options;
  options.fail_fraction = 0.1;
  options.seed = 7;
  auto injector = TaskFaultInjector::Create(options);
  ASSERT_TRUE(injector.ok());
  const uint64_t n = 20'000;
  const size_t faults = FaultedIndices(&*injector, n).size();
  EXPECT_GT(faults, n / 20);      // > 5%
  EXPECT_LT(faults, n * 3 / 20);  // < 15%
  EXPECT_EQ(injector->fault_count(), faults);
}

TEST(ChaosTest, AdaptiveServerSurvivesInjectedTaskFaults) {
  // The acceptance run: 50 cycles with 10% of planning requests throwing.
  // The run must complete with every cycle served from some ladder stage and
  // the planner.degraded.* counters accounting for every non-exact cycle.
  obs::Registry registry;
  Result<AdaptiveServerReport> report = InternalError("not run");
  {
    obs::ScopedObservability scope(&registry, nullptr);
    AdaptiveServerOptions options;
    options.num_cycles = 50;
    options.queries_per_cycle = 50;
    options.num_channels = 2;
    options.strategy = PlanStrategy::kOptimal;
    options.replan_every = 1;
    options.planner_threads = 2;  // faults fire at every thread count
    options.task_faults.fail_fraction = 0.10;
    options.task_faults.seed = 7;
    Rng rng(123);
    std::vector<double> weights(12, 1.0);
    report = RunAdaptiveServer(
        weights,
        [](int, std::vector<double>* w) { (*w)[0] += 0.25; }, &rng, options);
  }
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->cycles.size(), 50u);

  // Every cycle served a plan whose provenance is a real ladder stage, and
  // stale cycles exist iff replans failed.
  int stale_cycles = 0;
  for (const CycleStats& cycle : report->cycles) {
    EXPECT_TRUE(cycle.served_provenance == PlanProvenance::kExact ||
                cycle.served_provenance == PlanProvenance::kStalePrevious)
        << "cycle " << cycle.cycle << " served "
        << PlanProvenanceName(cycle.served_provenance);
    if (cycle.served_provenance == PlanProvenance::kStalePrevious) {
      ++stale_cycles;
    }
  }
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_GE(snapshot.CounterOr("fault.task.injected_failures", 0), 1u)
      << "the injector never fired — the chaos run tested nothing";
  EXPECT_GE(report->stale_serves, 1) << "no replan ever failed";
  // Counter accounting: one planner.degraded.stale per failed replan, one
  // planner.backoff_skips per due-but-skipped replan; stale cycles cover at
  // least every failed replan (the plan stays stale across backoff skips).
  EXPECT_EQ(snapshot.CounterOr("planner.degraded.stale", 0),
            static_cast<uint64_t>(report->stale_serves));
  EXPECT_EQ(snapshot.CounterOr("planner.backoff_skips", 0),
            static_cast<uint64_t>(report->backoff_skips));
  EXPECT_GE(stale_cycles, report->stale_serves);
}

Result<AdaptiveServerReport> RunDeterminismChaosConfig(int planner_threads) {
  AdaptiveServerOptions options;
  options.num_cycles = 30;
  options.queries_per_cycle = 20;
  options.num_channels = 2;
  options.strategy = PlanStrategy::kOptimal;
  options.replan_every = 1;
  options.planner_threads = planner_threads;
  options.task_faults.fail_fraction = 0.15;
  options.task_faults.seed = 11;
  Rng rng(99);
  std::vector<double> weights(10, 1.0);
  return RunAdaptiveServer(weights, nullptr, &rng, options);
}

void ExpectSameChaosReport(const AdaptiveServerReport& a,
                           const AdaptiveServerReport& b) {
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  EXPECT_EQ(a.stale_serves, b.stale_serves);
  EXPECT_EQ(a.backoff_skips, b.backoff_skips);
  for (size_t i = 0; i < a.cycles.size(); ++i) {
    EXPECT_EQ(a.cycles[i].served_provenance, b.cycles[i].served_provenance);
    EXPECT_EQ(a.cycles[i].realized_data_wait, b.cycles[i].realized_data_wait);
  }
}

TEST(ChaosTest, ChaosRunIsDeterministic) {
  // Same seeds, same options -> identical report, including which cycles
  // went stale: the injector keys on (cycle, request index), both
  // deterministic.
  auto a = RunDeterminismChaosConfig(2);
  auto b = RunDeterminismChaosConfig(2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameChaosReport(*a, *b);
}

TEST(ChaosTest, ReportIsInvariantAcrossPlannerThreads) {
  // The hook runs on every PlanMany call, sequential planning included, so
  // the thread count changes nothing a chaos run reports.
  auto sequential = RunDeterminismChaosConfig(1);
  auto pooled = RunDeterminismChaosConfig(2);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(pooled.ok());
  EXPECT_GE(sequential->stale_serves, 1) << "no replan ever failed";
  ExpectSameChaosReport(*sequential, *pooled);
}

TEST(ChaosTest, AllowStaleFalsePropagatesThePlanningError) {
  AdaptiveServerOptions options;
  options.num_cycles = 50;
  options.queries_per_cycle = 10;
  options.num_channels = 2;
  options.strategy = PlanStrategy::kOptimal;
  options.replan_every = 1;
  options.planner_threads = 2;
  options.allow_stale = false;
  options.task_faults.fail_fraction = 0.25;
  options.task_faults.seed = 3;
  Rng rng(5);
  std::vector<double> weights(10, 1.0);
  auto report = RunAdaptiveServer(weights, nullptr, &rng, options);
  EXPECT_FALSE(report.ok()) << "a failing replan must surface when stale "
                               "serving is disabled";
}

TEST(ChaosTest, StallFractionDoesNotFailAnything) {
  // Stalled (slow) tasks exercise the cancellation/deadline path without
  // erroring: the run completes with no stale serves from stalls alone.
  AdaptiveServerOptions options;
  options.num_cycles = 10;
  options.queries_per_cycle = 10;
  options.num_channels = 2;
  options.replan_every = 1;
  options.planner_threads = 2;
  options.task_faults.stall_fraction = 0.5;
  options.task_faults.stall_ns = 50'000;  // 50us busy-wait
  options.task_faults.seed = 13;
  Rng rng(17);
  std::vector<double> weights(8, 1.0);
  auto report = RunAdaptiveServer(weights, nullptr, &rng, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->stale_serves, 0);
}

}  // namespace
}  // namespace bcast
