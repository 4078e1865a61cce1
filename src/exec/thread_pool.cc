#include "exec/thread_pool.h"

#include <string>
#include <utility>

#include "obs/clock.h"
#include "obs/obs.h"
#include "util/check.h"

namespace bcast {

namespace {

// Which pool (if any) the current thread belongs to. A thread can only ever
// be a worker of one pool, so a single pair suffices.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  int index = -1;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

ThreadPool::ThreadPool(int num_threads, TaskHook task_hook)
    : task_hook_(std::move(task_hook)) {
  BCAST_CHECK_GE(num_threads, 1) << "thread pool needs at least one worker";
  // Sampled once: per-task clock reads only happen when someone will consume
  // them, and the flag never changes while workers are running.
  record_timing_ = obs::MetricsEnabled();
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // The lock pairs the flag flip with the cv wait: a worker that just saw
    // stopping_ == false cannot miss the notify.
    MutexLock lock(&idle_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  idle_cv_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();

  // Flush pool telemetry after the join: the worker tallies are stable now,
  // and a pool that lived through several searches reports its whole life.
  obs::Registry* registry = obs::GlobalMetrics();
  if (registry == nullptr) return;
  uint64_t tasks_run = 0;
  uint64_t busy_ns = 0;
  obs::Histogram worker_tasks = registry->GetHistogram("pool.worker_tasks");
  obs::Histogram worker_busy = registry->GetHistogram("pool.worker_busy_ns");
  for (const std::unique_ptr<Worker>& worker : workers_) {
    tasks_run += worker->tasks_run;
    busy_ns += worker->busy_ns;
    worker_tasks.Record(worker->tasks_run);
    if (record_timing_) worker_busy.Record(worker->busy_ns);
  }
  registry->GetCounter("pool.tasks_run").Add(tasks_run);
  registry->GetCounter("pool.busy_ns").Add(busy_ns);
  registry->GetCounter("pool.steals")
      .Add(steals_.load(std::memory_order_relaxed));
  registry->GetCounter("pool.failed_steals")
      .Add(failed_steals_.load(std::memory_order_relaxed));
  registry->GetCounter("pool.task_exceptions")
      .Add(task_exceptions_.load(std::memory_order_relaxed));
}

int ThreadPool::HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int ThreadPool::CurrentWorkerIndex() const {
  return tls_worker.pool == this ? tls_worker.index : -1;
}

void ThreadPool::Submit(std::function<void()> task) {
  BCAST_CHECK(task != nullptr);
  int target = CurrentWorkerIndex();
  if (target < 0) {
    target = static_cast<int>(next_external_.fetch_add(1, std::memory_order_relaxed) %
                              workers_.size());
  }
  Worker& worker = *workers_[static_cast<size_t>(target)];
  {
    MutexLock lock(&worker.mutex);
    worker.tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    // Serialize with the sleepers' predicate check: a worker is either still
    // holding idle_mutex_ (and will see the new pending_ count) or already
    // asleep (and will hear the notify). Without this lock the increment can
    // slip between a worker's failed predicate check and its sleep.
    MutexLock lock(&idle_mutex_);
  }
  idle_cv_.NotifyOne();
}

std::function<void()> ThreadPool::TakeTask(int self) {
  const int n = num_threads();
  // Own deque first, newest task (LIFO).
  {
    Worker& own = *workers_[static_cast<size_t>(self)];
    MutexLock lock(&own.mutex);
    if (!own.tasks.empty()) {
      std::function<void()> task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return task;
    }
  }
  // Steal the oldest task of the first non-empty victim.
  for (int offset = 1; offset < n; ++offset) {
    Worker& victim = *workers_[static_cast<size_t>((self + offset) % n)];
    MutexLock lock(&victim.mutex);
    if (!victim.tasks.empty()) {
      std::function<void()> task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      steals_.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  if (n > 1) failed_steals_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void ThreadPool::RunGuarded(const std::function<void()>& task) {
  try {
    task();
  } catch (...) {
    // Only raw Submit() tasks can land here — TaskGroup's wrapper catches
    // its own task's exceptions and reports them through Wait(). With no
    // waiter to tell, count and carry on rather than std::terminate the
    // whole process for one bad task.
    task_exceptions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::WorkerLoop(int index) {
  tls_worker = {this, index};
  for (;;) {
    std::function<void()> task = TakeTask(index);
    if (task != nullptr) {
      // The decrement happens after the take so pending_ over-approximates
      // runnable work and sleepers never under-wake.
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      Worker& self = *workers_[static_cast<size_t>(index)];
      if (record_timing_) {
        const uint64_t begin_ns = obs::MonotonicNanos();
        RunGuarded(task);
        self.busy_ns += obs::MonotonicNanos() - begin_ns;
      } else {
        RunGuarded(task);
      }
      ++self.tasks_run;
      continue;
    }
    MutexLock lock(&idle_mutex_);
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;  // drained: nothing queued anywhere, and no more will arrive
    }
    idle_cv_.Wait(&idle_mutex_, [this] {
      return pending_.load(std::memory_order_acquire) > 0 ||
             stopping_.load(std::memory_order_acquire);
    });
  }
}

TaskGroup::TaskGroup(ThreadPool* pool, const CancelToken* cancel)
    : pool_(pool), cancel_(cancel) {
  BCAST_CHECK(pool != nullptr);
}

void TaskGroup::RecordError(Status status) {
  obs::GetCounter("pool.group_task_errors").Increment();
  MutexLock lock(&mutex_);
  if (first_error_.ok()) first_error_ = std::move(status);
}

void TaskGroup::Run(std::function<void()> task) {
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  const uint64_t task_index = pool_->NextTaskIndex();
  pool_->Submit([this, task_index, task = std::move(task)] {
    // A task dequeued after cancellation skips its body but still counts as
    // finished — the outstanding_ decrement below must run exactly once per
    // task no matter what, or Wait() hangs forever.
    if (cancel_ == nullptr || !cancel_->cancelled()) {
      try {
        const ThreadPool::TaskHook& hook = pool_->task_hook();
        if (hook) hook(task_index);
        task();
      } catch (const std::exception& e) {
        RecordError(
            InternalError(std::string("pool task threw: ") + e.what()));
      } catch (...) {
        RecordError(InternalError("pool task threw a non-std exception"));
      }
    } else {
      obs::GetCounter("pool.tasks_skipped_cancelled").Increment();
    }
    // Decrement under the lock: Wait() can then observe zero only after
    // this thread has notified and released the lock, so the waiter cannot
    // destroy the group (mutex and condition variable included) while the
    // last task is still inside them.
    MutexLock lock(&mutex_);
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      cv_.NotifyAll();
    }
  });
}

Status TaskGroup::Wait() {
  BCAST_CHECK_EQ(pool_->CurrentWorkerIndex(), -1)
      << "TaskGroup::Wait() on a pool worker would deadlock";
  MutexLock lock(&mutex_);
  cv_.Wait(&mutex_, [this] {
    return outstanding_.load(std::memory_order_acquire) == 0;
  });
  return first_error_;
}

}  // namespace bcast
