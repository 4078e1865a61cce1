#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace bcast {

namespace {

// The failures one worker saw. A worker claims indices in increasing order,
// so its first failure is its lowest. Written only by its own worker and read
// after the join (the join is the sync point): join-synchronized, not
// lock-guarded, so deliberately unannotated.
struct WorkerFailures {
  size_t first_index = std::numeric_limits<size_t>::max();
  Status first_error;
  uint64_t count = 0;
};

Status RunBody(const std::function<void(size_t)>& body, size_t i) {
  try {
    body(i);
    return Status();
  } catch (const std::exception& e) {
    return InternalError(std::string("parallel task threw: ") + e.what());
  } catch (...) {
    return InternalError("parallel task threw a non-std exception");
  }
}

}  // namespace

Status ParallelFor(int threads, size_t n,
                   const std::function<void(size_t)>& body) {
  const size_t workers =
      threads <= 1 || n <= 1 ? 1 : std::min(static_cast<size_t>(threads), n);
  std::atomic<size_t> next{0};
  std::vector<WorkerFailures> failures(workers);
  auto work = [&](size_t w) {
    WorkerFailures& mine = failures[w];
    for (size_t i = next++; i < n; i = next++) {
      Status status = RunBody(body, i);
      if (status.ok()) continue;
      if (mine.count++ == 0) {
        mine.first_index = i;
        mine.first_error = std::move(status);
      }
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    try {
      helpers.emplace_back(work, w);
    } catch (const std::system_error&) {
      // The OS refused another thread. The workers already running (the
      // caller at least) claim every remaining index, so the batch still
      // completes with the same results.
      break;
    }
  }
  work(0);
  for (std::thread& helper : helpers) helper.join();

  const WorkerFailures* lowest = nullptr;
  uint64_t errors = 0;
  for (const WorkerFailures& f : failures) {
    errors += f.count;
    if (f.count > 0 && (lowest == nullptr || f.first_index < lowest->first_index)) {
      lowest = &f;
    }
  }
  if (lowest == nullptr) return Status();
  if (errors > 1) obs::GetCounter("pool.group_task_errors").Add(errors - 1);
  return lowest->first_error;
}

int HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace bcast
