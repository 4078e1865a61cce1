// ParallelFor (exec/parallel_for.h) and the PlanMany task hook built on it.
//
// The suite keeps the ThreadPoolTest name and test names of the
// work-stealing pool that ParallelFor replaced; each test now pins the
// fork-join property its name maps to.

#include "exec/parallel_for.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "obs/obs.h"
#include "tree/builders.h"

namespace bcast {
namespace {

// Spins until `done()` holds or ten seconds pass; returns done(). Bounds the
// tests that need two bodies in flight at once, so a regression to a
// sequential executor fails them instead of hanging the suite.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(HardwareConcurrency(), 1);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  // Every index runs exactly once.
  std::vector<std::atomic<int>> runs(1000);
  EXPECT_TRUE(ParallelFor(4, runs.size(), [&](size_t i) {
                runs[i].fetch_add(1);
              }).ok());
  for (size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(ThreadPoolTest, TasksSubmittedFromTasksAlsoDrain) {
  // A body may run a ParallelFor of its own; the inner batch completes
  // before the outer body returns.
  std::atomic<int> counter{0};
  EXPECT_TRUE(ParallelFor(3, 50, [&](size_t) {
                counter.fetch_add(1);
                EXPECT_TRUE(ParallelFor(2, 2, [&](size_t) {
                              counter.fetch_add(1);
                            }).ok());
              }).ok());
  EXPECT_EQ(counter.load(), 150);
}

TEST(ThreadPoolTest, WorkerIndexVisibleInsideTasksOnly) {
  // Two workers for two indices, and the calling thread is one of them: both
  // bodies wait until both have started, so they ran on distinct threads at
  // the same time.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::mutex mu;
  std::set<std::thread::id> ids;
  EXPECT_TRUE(ParallelFor(2, 2, [&](size_t) {
                started.fetch_add(1);
                EXPECT_TRUE(WaitFor([&] { return started.load() == 2; }));
                std::lock_guard<std::mutex> lock(mu);
                ids.insert(std::this_thread::get_id());
              }).ok());
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids.count(caller), 1u);
}

TEST(ThreadPoolTest, TaskGroupWaitsForNestedRuns) {
  // Two levels of nesting; every nested body has finished when the
  // outermost call returns.
  std::atomic<int> done{0};
  EXPECT_TRUE(ParallelFor(4, 20, [&](size_t) {
                EXPECT_TRUE(ParallelFor(2, 2, [&](size_t) {
                              EXPECT_TRUE(ParallelFor(2, 1, [&](size_t) {
                                            done.fetch_add(1);
                                          }).ok());
                              done.fetch_add(1);
                            }).ok());
                done.fetch_add(1);
              }).ok());
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadedPoolMakesProgress) {
  // threads <= 1 (and n <= 1 at any thread count) runs inline on the caller,
  // in index order.
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {-1, 0, 1}) {
    std::vector<size_t> order;
    bool on_caller = true;
    EXPECT_TRUE(ParallelFor(threads, 100, [&](size_t i) {
                  order.push_back(i);
                  on_caller &= std::this_thread::get_id() == caller;
                }).ok());
    ASSERT_EQ(order.size(), 100u);
    for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
    EXPECT_TRUE(on_caller);
  }
  std::thread::id ran_on;
  EXPECT_TRUE(ParallelFor(8, 1, [&](size_t) {
                ran_on = std::this_thread::get_id();
              }).ok());
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, IdleWorkersStealQueuedBacklog) {
  // While index 0 sleeps, the other worker claims and runs all the rest.
  constexpr size_t kN = 200;
  std::atomic<size_t> others_done{0};
  bool backlog_drained = false;
  EXPECT_TRUE(ParallelFor(2, kN, [&](size_t i) {
                if (i == 0) {
                  backlog_drained =
                      WaitFor([&] { return others_done.load() == kN - 1; });
                } else {
                  others_done.fetch_add(1);
                }
              }).ok());
  EXPECT_TRUE(backlog_drained);
  EXPECT_EQ(others_done.load(), kN - 1);
}

TEST(ThreadPoolTest, FlushesStatsIntoInstalledRegistry) {
  // pool.group_task_errors counts the bodies that threw beyond the one whose
  // error is returned.
  obs::Registry registry;
  {
    obs::ScopedObservability scope(&registry, nullptr);
    Status status = ParallelFor(3, 64, [](size_t i) {
      if (i % 20 == 5) throw std::runtime_error("fault " + std::to_string(i));
    });
    EXPECT_EQ(status.code(), StatusCode::kInternal);
  }
  // Indices 5, 25 and 45 threw.
  EXPECT_EQ(registry.Snapshot().CounterOr("pool.group_task_errors", 0), 2u);
}

TEST(ThreadPoolTest, NoRegistryMeansNoFlushAndNoCrash) {
  ASSERT_EQ(obs::GlobalMetrics(), nullptr);
  std::atomic<int> counter{0};
  Status status = ParallelFor(2, 100, [&](size_t i) {
    counter.fetch_add(1);
    if (i % 10 == 0) throw std::runtime_error("unrecorded");
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, FailedStealAccessorIsMonotonic) {
  // The returned error is the lowest failing index's, however the workers
  // interleave: index 40 is made to throw long before index 7 does.
  for (int round = 0; round < 5; ++round) {
    std::atomic<bool> late_failed{false};
    Status status = ParallelFor(4, 64, [&](size_t i) {
      if (i == 40) {
        late_failed = true;
        throw std::runtime_error("index 40");
      }
      if (i == 7) {
        WaitFor([&] { return late_failed.load(); });
        throw std::runtime_error("index 7");
      }
    });
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.message().find("index 7"), std::string::npos)
        << status.ToString();
  }
}

TEST(ThreadPoolTest, TaskExceptionBecomesStatusFromWait) {
  // A throwing body must surface as a Status, not std::terminate, and must
  // not stop the batch's other indices.
  std::atomic<int> ran{0};
  Status status = ParallelFor(2, 17, [&](size_t i) {
    if (i == 0) throw std::runtime_error("boom");
    ran.fetch_add(1);
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.ToString().find("boom"), std::string::npos);
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, NonStdExceptionAlsoBecomesStatus) {
  for (int threads : {1, 2}) {
    Status status = ParallelFor(threads, 2, [](size_t) { throw 42; });
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInternal);
  }
}

TEST(ThreadPoolTest, RawSubmitExceptionIsSwallowedAndCounted) {
  // The inline path has the same error contract: the caller gets the lowest
  // failing index's Status, every index still runs, and the extra failures
  // are counted.
  obs::Registry registry;
  std::vector<size_t> ran;
  Status status;
  {
    obs::ScopedObservability scope(&registry, nullptr);
    status = ParallelFor(1, 5, [&](size_t i) {
      ran.push_back(i);
      if (i == 1 || i == 3) throw std::runtime_error("inline " + std::to_string(i));
    });
  }
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("inline 1"), std::string::npos);
  EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(registry.Snapshot().CounterOr("pool.group_task_errors", 0), 1u);
}

TEST(ThreadPoolTest, PreCancelledGroupSkipsTaskBodies) {
  // An empty range runs no body and is not an error.
  std::atomic<int> ran{0};
  for (int threads : {1, 4}) {
    EXPECT_TRUE(ParallelFor(threads, 0, [&](size_t) { ran.fetch_add(1); }).ok());
  }
  EXPECT_EQ(ran.load(), 0);
}

std::vector<PlanRequest> PaperTreeRequests(const IndexTree* tree, size_t n) {
  PlannerOptions options;
  options.num_channels = 2;
  options.strategy = PlanStrategy::kSorting;
  return std::vector<PlanRequest>(n, PlanRequest{tree, options});
}

TEST(ThreadPoolTest, TaskHookSeesEveryGroupTask) {
  // PlanMany calls its hook once per request at every thread count and batch
  // size, inline path included.
  IndexTree tree = MakePaperExampleTree();
  for (int threads : {1, 2}) {
    for (size_t n : {1, 32}) {
      std::atomic<int> hooked{0};
      std::vector<Result<BroadcastPlan>> plans =
          PlanMany(PaperTreeRequests(&tree, n), threads,
                   [&hooked](uint64_t) { hooked.fetch_add(1); });
      EXPECT_EQ(hooked.load(), static_cast<int>(n));
      for (const Result<BroadcastPlan>& plan : plans) EXPECT_TRUE(plan.ok());
    }
  }
}

TEST(ThreadPoolTest, ThrowingHookFailsTheGroupNotTheProcess) {
  // The fault-injection contract: a hook that throws skips that request's
  // planning and lands as a kInternal Status in its own slot only.
  IndexTree tree = MakePaperExampleTree();
  for (int threads : {1, 2}) {
    std::vector<Result<BroadcastPlan>> plans =
        PlanMany(PaperTreeRequests(&tree, 3), threads, [](uint64_t index) {
          if (index == 1) throw std::runtime_error("hook fault");
        });
    ASSERT_EQ(plans.size(), 3u);
    EXPECT_TRUE(plans[0].ok());
    ASSERT_FALSE(plans[1].ok());
    EXPECT_EQ(plans[1].status().code(), StatusCode::kInternal);
    EXPECT_NE(plans[1].status().message().find("hook fault"), std::string::npos);
    EXPECT_TRUE(plans[2].ok());
  }
}

TEST(ThreadPoolTest, GroupTaskIndicesAreSubmissionOrdered) {
  // The hook index is the request index: 0..n-1, whatever the thread count —
  // the property deterministic fault injection relies on.
  IndexTree tree = MakePaperExampleTree();
  for (int threads : {1, 4}) {
    std::vector<uint64_t> seen;
    std::mutex mu;
    PlanMany(PaperTreeRequests(&tree, 100), threads, [&](uint64_t index) {
      std::lock_guard<std::mutex> lock(mu);
      seen.push_back(index);
    });
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), 100u);
    for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(seen[i], i);
  }
}

}  // namespace
}  // namespace bcast
