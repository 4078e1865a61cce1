// Streaming time series on top of the metrics registry.
//
// A Series is a fixed-capacity ring buffer of (index, value) points. The
// index is always a logical ordinal — a server cycle, a popsim shard id, a
// replay line number — never a wall-clock timestamp, so a run's telemetry
// stream is bit-identical across machines and repetitions (DESIGN.md §16).
//
// DeltaSnapshotter turns the registry's monotonic totals into per-tick
// increments: counters are differenced against the previous snapshot, and
// histograms are differenced bucket-by-bucket so quantiles can be taken over
// just the window between two ticks (the log2 buckets make this exact — a
// window histogram is the arithmetic difference of two cumulative ones).
//
// None of this is thread-safe: series and snapshotters live on the control
// path (the per-cycle loop, the post-join merge pass), never inside a hot
// loop. The hot paths keep writing the registry's atomic cells; the only
// cross-thread interaction is Registry::Snapshot(), which is already safe.

#ifndef BCAST_OBS_TIMESERIES_H_
#define BCAST_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace bcast::obs {

/// Default ring capacity: enough for a long soak's dashboard tail without
/// unbounded growth on a million-tick run.
inline constexpr size_t kDefaultSeriesCapacity = 512;

struct SeriesPoint {
  uint64_t index = 0;
  double value = 0.0;
};

/// Fixed-capacity ring buffer of points, oldest evicted first. Values may be
/// NaN (e.g. an undelivered-only cycle's realized wait): NaN points are kept
/// in the ring — they mark "no observation this tick" — and skipped by the
/// windowed reductions.
class Series {
 public:
  Series(std::string name, size_t capacity);

  const std::string& name() const { return name_; }
  size_t capacity() const { return capacity_; }
  /// Points currently retained (<= capacity).
  size_t size() const { return ring_.size(); }
  /// Points ever appended (>= size once the ring wraps).
  uint64_t total_appended() const { return total_; }
  bool empty() const { return ring_.empty(); }

  void Append(uint64_t index, double value);

  /// i in [0, size()), oldest first.
  const SeriesPoint& At(size_t i) const;
  /// All retained points, oldest first.
  std::vector<SeriesPoint> Points() const;
  /// Latest value; NaN when empty.
  double Last() const;
  /// Latest index; 0 when empty.
  uint64_t LastIndex() const;

  /// Mean / max over the last min(window, size) points, skipping NaN; NaN
  /// when no finite point is in the window.
  double WindowMean(size_t window) const;
  double WindowMax(size_t window) const;

 private:
  std::string name_;
  size_t capacity_;
  std::vector<SeriesPoint> ring_;  // ring_[ (head_ + i) % capacity_ ]
  size_t head_ = 0;                // index of the oldest point once full
  uint64_t total_ = 0;
};

/// Name-addressed set of series with stable creation order (the order series
/// first appeared in the stream — what the dashboard and the JSONL replay
/// both iterate).
class SeriesSet {
 public:
  explicit SeriesSet(size_t capacity = kDefaultSeriesCapacity);

  /// Find-or-create; the pointer stays valid for the set's lifetime.
  Series* GetOrCreate(std::string_view name);
  const Series* Find(std::string_view name) const;

  size_t size() const { return series_.size(); }
  const Series& at(size_t i) const { return *series_[i]; }

 private:
  size_t capacity_;
  std::vector<std::unique_ptr<Series>> series_;
  std::map<std::string, size_t, std::less<>> index_;
};

/// Differences successive MetricsSnapshots into per-tick deltas. The first
/// Take() is the delta against an all-zero baseline, so a tracker created
/// alongside a fresh registry reports exactly what each tick contributed.
class DeltaSnapshotter {
 public:
  struct Delta {
    /// Counter increments since the previous Take (names present in the
    /// snapshot; an unchanged counter reports 0).
    std::map<std::string, uint64_t> counters;
    /// Per-histogram window: only the values recorded since the previous
    /// Take. count == 0 means nothing landed in the window.
    std::vector<HistogramSnapshot> histograms;
  };

  Delta Take(const MetricsSnapshot& snapshot);

 private:
  std::map<std::string, uint64_t> prev_counters_;
  // Histogram name -> cumulative (bucket lower -> count), plus count/sum.
  struct PrevHistogram {
    std::map<uint64_t, uint64_t> bucket_counts;
    uint64_t count = 0;
    uint64_t sum = 0;
  };
  std::map<std::string, PrevHistogram> prev_histograms_;
};

}  // namespace bcast::obs

#endif  // BCAST_OBS_TIMESERIES_H_
