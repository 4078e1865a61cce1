// Streaming telemetry: bounded, drop-accounted record sinks and the pipeline
// that feeds them from per-tick registry deltas.
//
// The stream is JSONL — one self-describing JSON object per line, schema
// versioned by kTelemetrySchemaVersion (docs/FORMATS.md "Telemetry stream
// JSONL"). Four record types:
//   meta   first line: source, SLO specs, free-form run metadata
//   tick   one per cycle/shard: {series name -> value} at a logical index
//   alert  an SLO burn-rate edge transition (firing / resolved)
//   fin    last line: tick/alert/drop totals and the run outcome — written
//          on EVERY exit path, including degraded and failed runs, so the
//          stream is never silently truncated
//
// Sink contract: Emit() never blocks a hot path — the JSONL sink buffers in
// memory and writes only when the buffer crosses its high-water mark (or on
// Flush). A failed write poisons the sink: the records it held and every
// later one are counted as dropped instead of blocking or aborting the run,
// and the first error is reported by Flush()/TelemetryPipeline::Finish().
// Telemetry is observation, not output — losing it must never change or kill
// the run it watches.
//
// Determinism: ticks are keyed by cycle/slot/shard ordinals, never wall
// clock, and the pipeline only *reads* metrics. Outcome digests are
// byte-identical with telemetry on or off (pinned by tests/telemetry_test.cc
// and the CI popsim digest gate).

#ifndef BCAST_OBS_STREAM_H_
#define BCAST_OBS_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "util/status.h"

namespace bcast::obs {

inline constexpr int kTelemetrySchemaVersion = 1;

struct TelemetryRecord {
  enum class Type { kMeta, kTick, kAlert, kFin };
  Type type = Type::kTick;
  /// Logical ordinal (cycle, shard, ...) for tick/alert/fin records.
  uint64_t index = 0;
  /// tick: series name -> value (NaN serializes as null).
  std::map<std::string, double> values;
  /// meta/fin: free-form string fields (source, outcome, ...).
  std::map<std::string, std::string> meta;
  /// fin: stream totals.
  uint64_t ticks = 0;
  uint64_t alerts = 0;
  uint64_t dropped = 0;
  /// alert payload.
  std::optional<SloAlert> alert;
  /// meta: the SLO specs active on the stream (canonical grammar).
  std::vector<std::string> slos;
};

/// Serializes one record as a single JSON line (no trailing newline).
std::string FormatTelemetryRecord(const TelemetryRecord& record);

/// Parses one JSONL line. Errors on malformed JSON, an unknown record type,
/// or a schema-version mismatch.
Result<TelemetryRecord> ParseTelemetryRecord(std::string_view line);

/// Parses a whole stream (blank lines ignored); errors carry the 1-based
/// line number.
Result<std::vector<TelemetryRecord>> ParseTelemetryJsonl(
    std::string_view text);
Result<std::vector<TelemetryRecord>> ReadTelemetryFile(
    const std::string& path);

/// Rebuilds the ring-buffer series from a stream's tick records — the replay
/// half of the round trip (`bcastctl top --replay`).
SeriesSet RebuildSeries(const std::vector<TelemetryRecord>& records,
                        size_t capacity = kDefaultSeriesCapacity);

/// Where telemetry records go. Implementations must make Emit cheap and
/// non-blocking (buffer, then drop with accounting rather than stall).
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void Emit(const TelemetryRecord& record) = 0;
  /// Drains buffers; returns the first error the sink ever hit.
  virtual Status Flush() = 0;
  /// Records dropped so far (buffer poisoned by a failed write).
  virtual uint64_t dropped() const = 0;
};

/// JSONL file sink with bounded in-memory buffering. Open() fails fast on an
/// unwritable path so a misspelled --telemetry-out dies at startup, not
/// after a million-client run.
class JsonlFileSink final : public TelemetrySink {
 public:
  static Result<JsonlFileSink> Open(const std::string& path,
                                    size_t max_buffered_bytes = size_t{1}
                                                                << 20);
  ~JsonlFileSink() override;
  JsonlFileSink(JsonlFileSink&& other) noexcept;
  JsonlFileSink& operator=(JsonlFileSink&& other) noexcept;
  JsonlFileSink(const JsonlFileSink&) = delete;
  JsonlFileSink& operator=(const JsonlFileSink&) = delete;

  void Emit(const TelemetryRecord& record) override;
  Status Flush() override;
  uint64_t dropped() const override { return dropped_; }

 private:
  JsonlFileSink(std::FILE* file, std::string path, size_t max_buffered_bytes);
  void FlushBuffer();

  std::FILE* file_ = nullptr;
  std::string path_;
  size_t max_buffered_bytes_ = 0;
  std::string buffer_;
  uint64_t dropped_ = 0;
  Status error_ = Status::Ok();
};

/// In-memory sink: keeps every record. Backs `bcastctl top`'s live
/// (ring-buffer) mode and the unit tests.
class MemorySink final : public TelemetrySink {
 public:
  void Emit(const TelemetryRecord& record) override {
    records_.push_back(record);
  }
  Status Flush() override { return Status::Ok(); }
  uint64_t dropped() const override { return 0; }
  const std::vector<TelemetryRecord>& records() const { return records_; }

 private:
  std::vector<TelemetryRecord> records_;
};

struct TelemetryOptions {
  /// Ring capacity of every series.
  size_t series_capacity = kDefaultSeriesCapacity;
  /// Registry whose counters/histograms are delta-tracked each tick; null =
  /// only Observe()d samples flow.
  Registry* registry = nullptr;
  /// Counters whose per-tick increments become "<name>.delta" series.
  std::vector<std::string> counters;
  /// Histograms whose per-tick windows become "<name>.p50/.p95/.p99" series.
  std::vector<std::string> histograms;
  std::vector<SloSpec> slos;
  /// Emitter tag for the meta record ("adaptive_server", "popsim", ...).
  std::string source;
  /// Extra meta-record fields (seed, flags, ...).
  std::map<std::string, std::string> meta;
};

/// Ties the layer together: buffers Observe()d samples, folds in registry
/// deltas at each Tick, appends to the ring-buffer series, evaluates SLOs,
/// and emits tick/alert records. Single-threaded by design — it lives on the
/// control path (per-cycle loop, post-join merge), never inside workers.
class TelemetryPipeline {
 public:
  /// Emits the meta record immediately. The sink must outlive the pipeline.
  TelemetryPipeline(TelemetrySink* sink, TelemetryOptions options);

  /// Stages a sample for the next Tick. NaN is a valid "no observation"
  /// marker and flows through to the stream as null.
  void Observe(std::string_view series, double value);

  /// Closes tick `index`: staged samples and registry deltas append to the
  /// series, SLOs are evaluated, records are emitted. Indices must be
  /// strictly increasing across the stream.
  void Tick(uint64_t index);

  /// Emits the fin record (with `outcome`: "ok", "error", ...) and flushes.
  /// Idempotent — the first call wins; every later call just returns the
  /// sink status. RunAdaptiveServer and popsim call this on EVERY exit path.
  Status Finish(std::string_view outcome);

  bool finished() const { return finished_; }
  const SeriesSet& series() const { return series_; }
  uint64_t ticks() const { return ticks_; }
  uint64_t alerts_emitted() const { return alerts_; }
  uint64_t dropped() const { return sink_->dropped(); }
  const SloEngine& slo_engine() const { return slo_; }

 private:
  TelemetrySink* sink_;
  TelemetryOptions options_;
  SeriesSet series_;
  DeltaSnapshotter deltas_;
  SloEngine slo_;
  std::vector<std::pair<std::string, double>> staged_;
  uint64_t ticks_ = 0;
  uint64_t alerts_ = 0;
  uint64_t last_index_ = 0;
  bool finished_ = false;
  Status finish_status_ = Status::Ok();
};

/// Finishes a pipeline on every scope exit. Constructed with the pessimistic
/// outcome ("error"): an early return — planning failure, worker fault,
/// verifier rejection — still appends the fin record and flushes the sink,
/// so a consumer can always tell a finished-with-error stream from one whose
/// writer crashed. The happy path overwrites the outcome just before return.
/// Finish() is idempotent, so callers may also Finish() explicitly afterwards
/// to collect the sink status.
class TelemetryFinishGuard {
 public:
  explicit TelemetryFinishGuard(TelemetryPipeline* pipeline)
      : pipeline_(pipeline) {}
  ~TelemetryFinishGuard() {
    if (pipeline_ != nullptr) pipeline_->Finish(outcome_);
  }
  TelemetryFinishGuard(const TelemetryFinishGuard&) = delete;
  TelemetryFinishGuard& operator=(const TelemetryFinishGuard&) = delete;
  void set_outcome(const char* outcome) { outcome_ = outcome; }

 private:
  TelemetryPipeline* pipeline_;
  const char* outcome_ = "error";
};

}  // namespace bcast::obs

#endif  // BCAST_OBS_STREAM_H_
