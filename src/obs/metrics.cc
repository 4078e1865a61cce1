#include "obs/metrics.h"

#include "obs/clock.h"
#include "util/check.h"

namespace bcast::obs {

namespace {

// One-entry thread-local shard cache. A thread alternating between two live
// registries re-registers a shard on each switch (correct — aggregation sums
// all shards — just slightly wasteful); the common case of one registry per
// run hits the cache every time after the first increment.
struct ShardCache {
  uint64_t uid = 0;
  void* shard = nullptr;
};
thread_local ShardCache tls_shard_cache;

std::atomic<uint64_t> next_registry_uid{1};

void LowerMin(std::atomic<uint64_t>& cell, uint64_t value) {
  uint64_t observed = cell.load(std::memory_order_relaxed);
  while (value < observed &&
         !cell.compare_exchange_weak(observed, value,
                                     std::memory_order_relaxed)) {
  }
}

void RaiseMax(std::atomic<uint64_t>& cell, uint64_t value) {
  uint64_t observed = cell.load(std::memory_order_relaxed);
  while (value > observed &&
         !cell.compare_exchange_weak(observed, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

struct alignas(64) Registry::Shard {
  std::array<std::atomic<uint64_t>, Registry::kMaxCounters> cells{};
};

Registry::Registry()
    : uid_(next_registry_uid.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

void Counter::Add(uint64_t n) const {
  if (registry_ == nullptr || n == 0) return;
  registry_->AddToCounter(index_, n);
}

void Registry::AddToCounter(uint32_t index, uint64_t n) {
  CurrentShard()->cells[index].fetch_add(n, std::memory_order_relaxed);
}

Registry::Shard* Registry::CurrentShard() {
  if (tls_shard_cache.uid == uid_) {
    return static_cast<Shard*>(tls_shard_cache.shard);
  }
  MutexLock lock(&mutex_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  tls_shard_cache = {uid_, shard};
  return shard;
}

Counter Registry::GetCounter(std::string_view name) {
  MutexLock lock(&mutex_);
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return Counter(this, it->second);
  BCAST_CHECK(counter_names_.size() < kMaxCounters)
      << "metrics registry is out of counter cells (" << kMaxCounters << ")";
  uint32_t index = static_cast<uint32_t>(counter_names_.size());
  counter_names_.emplace_back(name);
  counter_index_.emplace(std::string(name), index);
  return Counter(this, index);
}

Gauge Registry::GetGauge(std::string_view name) {
  MutexLock lock(&mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<std::atomic<int64_t>>(0))
             .first;
  }
  return Gauge(it->second.get());
}

Histogram Registry::GetHistogram(std::string_view name) {
  MutexLock lock(&mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<internal::HistogramCells>())
             .first;
  }
  return Histogram(it->second.get());
}

void Histogram::Record(uint64_t value) const {
  if (cells_ == nullptr) return;
  cells_->buckets[static_cast<size_t>(HistogramBatch::BucketOf(value))]
      .fetch_add(1, std::memory_order_relaxed);
  cells_->count.fetch_add(1, std::memory_order_relaxed);
  cells_->sum.fetch_add(value, std::memory_order_relaxed);
  LowerMin(cells_->min, value);
  RaiseMax(cells_->max, value);
}

void Histogram::Merge(const HistogramBatch& batch) const {
  if (cells_ == nullptr || batch.count_ == 0) return;
  for (size_t b = 0; b < batch.buckets_.size(); ++b) {
    if (batch.buckets_[b] == 0) continue;
    cells_->buckets[b].fetch_add(batch.buckets_[b], std::memory_order_relaxed);
  }
  cells_->count.fetch_add(batch.count_, std::memory_order_relaxed);
  cells_->sum.fetch_add(batch.sum_, std::memory_order_relaxed);
  LowerMin(cells_->min, batch.min_);
  RaiseMax(cells_->max, batch.max_);
}

void Registry::SetMeta(std::string_view key, std::string_view value) {
  MutexLock lock(&mutex_);
  meta_[std::string(key)] = std::string(value);
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.version = kMetricsSchemaVersion;
  MutexLock lock(&mutex_);
  for (size_t index = 0; index < counter_names_.size(); ++index) {
    uint64_t total = 0;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      total += shard->cells[index].load(std::memory_order_relaxed);
    }
    snapshot.counters[counter_names_[index]] = total;
  }
  for (const auto& [name, cell] : gauges_) {
    snapshot.gauges[name] = cell->load(std::memory_order_relaxed);
  }
  for (const auto& [name, cells] : histograms_) {
    HistogramSnapshot hist;
    hist.name = name;
    hist.count = cells->count.load(std::memory_order_relaxed);
    if (hist.count == 0) {
      snapshot.histograms.push_back(std::move(hist));
      continue;
    }
    hist.sum = cells->sum.load(std::memory_order_relaxed);
    hist.min = cells->min.load(std::memory_order_relaxed);
    hist.max = cells->max.load(std::memory_order_relaxed);
    for (int b = 0; b < internal::HistogramCells::kNumBuckets; ++b) {
      uint64_t count =
          cells->buckets[static_cast<size_t>(b)].load(std::memory_order_relaxed);
      if (count == 0) continue;
      HistogramBucket bucket;
      bucket.lower = b == 0 ? 0 : uint64_t{1} << (b - 1);
      bucket.upper = b == 0 ? 1
                     : b == 64
                         ? ~uint64_t{0}
                         : uint64_t{1} << b;
      bucket.count = count;
      hist.buckets.push_back(bucket);
    }
    snapshot.histograms.push_back(std::move(hist));
  }
  for (const auto& [key, value] : meta_) snapshot.meta[key] = value;
  return snapshot;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min);
  if (q >= 1.0) return static_cast<double>(max);
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (const HistogramBucket& bucket : buckets) {
    const double next = cumulative + static_cast<double>(bucket.count);
    if (next >= target) {
      const double fraction =
          (target - cumulative) / static_cast<double>(bucket.count);
      const double lo = static_cast<double>(bucket.lower);
      const double hi = static_cast<double>(bucket.upper);
      return lo + fraction * (hi - lo);
    }
    cumulative = next;
  }
  return static_cast<double>(max);
}

uint64_t MetricsSnapshot::CounterOr(std::string_view name,
                                    uint64_t fallback) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? fallback : it->second;
}

ScopedTimer::ScopedTimer(Histogram hist) : hist_(hist) {
  if (hist_) begin_ns_ = MonotonicNanos();
}

ScopedTimer::~ScopedTimer() {
  if (hist_) hist_.Record(MonotonicNanos() - begin_ns_);
}

}  // namespace bcast::obs
