// Low-overhead metrics registry: monotonic counters, gauges, log2-bucket
// histograms with streaming quantile estimates, and RAII scoped timers.
//
// Design for concurrent writers (PlanMany, popsim shards):
//  * Counters are *thread-sharded*: each thread that touches a registry gets
//    a private cache-line-aligned shard of atomic cells, so hot-path
//    increments are uncontended relaxed adds with no false sharing. Nothing
//    is aggregated on the write path — Snapshot() does the explicit
//    cross-shard summation, which is the only place totals exist.
//  * Gauges and histograms are single atomic cells with relaxed ops (their
//    call sites are orders of magnitude colder than counter increments).
//  * Every handle type (Counter/Gauge/Histogram) is a trivially copyable
//    value that is *null by default*: operations on a null handle are no-ops,
//    so instrumented code pays one branch when the registry is disabled.
//    This is the "null sink" contract — with no registry installed the
//    instrumented binaries produce bit-identical outputs to uninstrumented
//    ones, because metrics never feed back into any algorithm decision.
//
// Lifetime: handles borrow the registry; they must not outlive it. The
// thread-local shard cache is keyed by a process-unique registry id, so a
// destroyed registry's cache entries are never dereferenced (a new registry
// gets a fresh id and fresh shards).

#ifndef BCAST_OBS_METRICS_H_
#define BCAST_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bcast::obs {

class Registry;

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
  void Add(uint64_t n) const;
  void Increment() const { Add(1); }
  explicit operator bool() const { return registry_ != nullptr; }

 private:
  friend class Registry;
  Counter(Registry* registry, uint32_t index)
      : registry_(registry), index_(index) {}
  Registry* registry_ = nullptr;
  uint32_t index_ = 0;
};

/// Last-write-wins signed gauge handle.
class Gauge {
 public:
  Gauge() = default;
  void Set(int64_t value) const {
    if (cell_ != nullptr) cell_->store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) const {
    if (cell_ != nullptr) cell_->fetch_add(delta, std::memory_order_relaxed);
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<int64_t>* cell) : cell_(cell) {}
  std::atomic<int64_t>* cell_ = nullptr;
};

/// Fixed-bucket (log2) histogram handle. Record() is wait-free apart from
/// the min/max CAS loops; quantiles are estimated from the buckets at
/// snapshot time (constant memory regardless of how many values stream in).
class Histogram {
 public:
  Histogram() = default;
  void Record(uint64_t value) const;
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
  std::map<std::string, int64_t> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::map<std::string, std::string> meta;

  uint64_t CounterOr(std::string_view name, uint64_t fallback) const;
};

inline constexpr int kMetricsSchemaVersion = 1;

class Registry {
 public:
  /// Counter-cell capacity per shard. Creating more distinct counters than
  /// this check-fails — the instrument surface is a fixed, known set.
  static constexpr size_t kMaxCounters = 256;

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create by name. Handles stay valid for the registry's lifetime
  /// and may be used concurrently from any thread.
  Counter GetCounter(std::string_view name);
  Gauge GetGauge(std::string_view name);
  Histogram GetHistogram(std::string_view name);

  /// Free-form key/value attached to snapshots (command line, seed, ...).
  void SetMeta(std::string_view key, std::string_view value);

  /// Explicit aggregation: sums every thread shard. Concurrent writers are
  /// not quiesced — call after the instrumented work joined for exact totals.
  MetricsSnapshot Snapshot() const;

 private:
  friend class Counter;

  struct Shard;

  void AddToCounter(uint32_t index, uint64_t n);
  Shard* CurrentShard();

  const uint64_t uid_;  // process-unique; keys the thread-local shard cache
  // One registration lock guards every name table and the shard list; the
  // cells the returned handles point at are atomics, so the hot write path
  // (Counter::Add via the thread-local shard cache) never takes it.
  mutable Mutex mutex_;
  // index -> name
  std::vector<std::string> counter_names_ BCAST_GUARDED_BY(mutex_);
  std::map<std::string, uint32_t, std::less<>> counter_index_
      BCAST_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<Shard>> shards_ BCAST_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<std::atomic<int64_t>>, std::less<>>
      gauges_ BCAST_GUARDED_BY(mutex_);
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
