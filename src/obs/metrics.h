// Low-overhead metrics registry: monotonic counters, log2-bucket histograms
// with streaming quantile estimates, and RAII scoped timers.
//
// Design for concurrent writers (PlanMany, popsim shards):
//  * Every metric is one set of atomic cells under its name, written with
//    relaxed ops. A counter is a single cell; a histogram is its buckets plus
//    count/sum/min/max. Snapshot() reads the cells under the registry mutex.
//  * Call sites resolve a handle by name (one map lookup under the mutex)
//    and write a few times; a loop that records many values fills a local
//    HistogramBatch and merges it once, so no cell is contended per value.
//  * Every handle type (Counter/Histogram) is a trivially copyable value that
//    is *null by default*: operations on a null handle are no-ops, so
//    instrumented code pays one branch when the registry is disabled.
//    This is the "null sink" contract — with no registry installed the
//    instrumented binaries produce bit-identical outputs to uninstrumented
//    ones, because metrics never feed back into any algorithm decision.
//
// Lifetime: handles borrow the registry's cells; they must not outlive it.

#ifndef BCAST_OBS_METRICS_H_
#define BCAST_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bcast::obs {

namespace internal {

/// Shared cells of one histogram. Values land in log2 buckets: bucket 0
/// holds the value 0, bucket i >= 1 the range [2^(i-1), 2^i).
struct HistogramCells {
  static constexpr int kNumBuckets = 65;  // bit_width(uint64) in [0, 64]
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> min{~uint64_t{0}};
  std::atomic<uint64_t> max{0};
};

}  // namespace internal

/// Monotonically increasing counter handle. Null (default-constructed)
/// handles drop every operation.
class Counter {
 public:
  Counter() = default;
  void Add(uint64_t n) const {
    if (cell_ != nullptr) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() const { Add(1); }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::atomic<uint64_t>* cell) : cell_(cell) {}
  std::atomic<uint64_t>* cell_ = nullptr;
};

/// Values counted locally by one thread for a later Histogram::Merge: the
/// same log2 buckets and count/sum/min/max as the shared cells, in plain
/// integers. A loop that records many values fills a batch and merges it
/// once, paying one atomic add per non-empty bucket instead of three atomic
/// read-modify-writes and two CAS loops per value.
class HistogramBatch {
 public:
  void Record(uint64_t value) {
    ++buckets_[static_cast<size_t>(BucketOf(value))];
    ++count_;
    sum_ += value;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  /// Log2 bucket of `value`: 0 for 0, bit_width(value) otherwise.
  static int BucketOf(uint64_t value) {
    return value == 0 ? 0 : std::bit_width(value);
  }

 private:
  friend class Histogram;
  std::array<uint64_t, internal::HistogramCells::kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~uint64_t{0};
  uint64_t max_ = 0;
};

/// Fixed-bucket (log2) histogram handle. Record() is wait-free apart from
/// the min/max CAS loops; quantiles are estimated from the buckets at
/// snapshot time (constant memory regardless of how many values stream in).
class Histogram {
 public:
  Histogram() = default;
  void Record(uint64_t value) const;
  /// Adds every value recorded in `batch`. The cells end up exactly as if
  /// each value had gone through Record().
  void Merge(const HistogramBatch& batch) const;
  explicit operator bool() const { return cells_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(internal::HistogramCells* cells) : cells_(cells) {}
  internal::HistogramCells* cells_ = nullptr;
};

/// One non-empty histogram bucket: count of values in [lower, upper).
struct HistogramBucket {
  uint64_t lower = 0;
  uint64_t upper = 0;
  uint64_t count = 0;
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  std::vector<HistogramBucket> buckets;  // non-empty, ascending by lower

  /// Streaming quantile estimate (q in [0, 1]): nearest-rank bucket with
  /// linear interpolation inside it. Exact for the bucket boundaries,
  /// within one octave otherwise. Returns 0 for an empty histogram.
  double Quantile(double q) const;
};

/// Point-in-time aggregation of a registry (schema documented in
/// docs/FORMATS.md, versioned by kMetricsSchemaVersion).
struct MetricsSnapshot {
  int version = 0;
  std::map<std::string, uint64_t> counters;
  std::vector<HistogramSnapshot> histograms;
  std::map<std::string, std::string> meta;

  uint64_t CounterOr(std::string_view name, uint64_t fallback) const;
};

inline constexpr int kMetricsSchemaVersion = 2;

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create by name. Handles stay valid for the registry's lifetime
  /// and may be used concurrently from any thread.
  Counter GetCounter(std::string_view name);
  Histogram GetHistogram(std::string_view name);

  /// Free-form key/value attached to snapshots (command line, seed, ...).
  void SetMeta(std::string_view key, std::string_view value);

  /// Reads every cell. Concurrent writers are not quiesced — call after the
  /// instrumented work joined for exact totals.
  MetricsSnapshot Snapshot() const;

 private:
  // One registration lock guards every name table; the cells the returned
  // handles point at are atomics, so the write path never takes it.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<std::atomic<uint64_t>>, std::less<>>
      counters_ BCAST_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<internal::HistogramCells>, std::less<>>
      histograms_ BCAST_GUARDED_BY(mutex_);
  std::map<std::string, std::string, std::less<>> meta_
      BCAST_GUARDED_BY(mutex_);
};

/// RAII timer: records elapsed nanoseconds into `hist` at scope exit. With a
/// null histogram the clock is never read.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram hist);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram hist_;
  uint64_t begin_ns_ = 0;
};

}  // namespace bcast::obs

#endif  // BCAST_OBS_METRICS_H_
