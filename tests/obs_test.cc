// The observability layer itself: null-sink contract, counters under
// concurrency, histogram bucketing, snapshot aggregation, JSON/trace export,
// and the scoped global install/restore.

#include "obs/obs.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "obs/export.h"
#include "obs/stream.h"
#include "util/rng.h"

namespace bcast::obs {
namespace {

const HistogramSnapshot& FindHistogram(const MetricsSnapshot& snapshot,
                                       const std::string& name) {
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == name) return h;
  }
  static const HistogramSnapshot empty;
  ADD_FAILURE() << "histogram '" << name << "' not in snapshot";
  return empty;
}

TEST(ObsTest, NullHandlesAreSafeNoOps) {
  // Default-constructed handles (what every instrumentation site gets when
  // no registry is installed) must absorb all operations.
  Counter counter;
  counter.Increment();
  counter.Add(17);
  EXPECT_FALSE(static_cast<bool>(counter));
  Histogram histogram;
  histogram.Record(123);
  EXPECT_FALSE(static_cast<bool>(histogram));
  // Free functions with nothing installed return null handles.
  ASSERT_EQ(GlobalMetrics(), nullptr);
  EXPECT_FALSE(MetricsEnabled());
  GetCounter("x").Increment();
  GetHistogram("x").Record(1);
  SetMeta("k", "v");
  { ScopedSpan span("no recorder installed"); }
  { ScopedTimer timer(Histogram{}); }
}

TEST(ObsTest, CounterAccumulatesAndSnapshots) {
  Registry registry;
  registry.GetCounter("a").Add(3);
  registry.GetCounter("a").Increment();
  registry.GetCounter("b").Add(0);  // registered but zero
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("a"), 4u);
  EXPECT_EQ(snapshot.counters.at("b"), 0u);
  EXPECT_EQ(snapshot.CounterOr("missing", 7), 7u);
}

TEST(ObsTest, CountersSumAcrossThreads) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter counter = registry.GetCounter("hits");
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.Snapshot().counters.at("hits"),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsTest, TwoRegistriesDoNotShareShards) {
  // Each registry owns its cells: the same name in two registries is two
  // counters, and interleaving them on one thread routes every Add to the
  // registry that handed out the handle.
  Registry first;
  Registry second;
  for (int i = 0; i < 100; ++i) {
    first.GetCounter("n").Increment();
    second.GetCounter("n").Add(2);
  }
  EXPECT_EQ(first.Snapshot().counters.at("n"), 100u);
  EXPECT_EQ(second.Snapshot().counters.at("n"), 200u);
}

TEST(ObsTest, RegistryHoldsMoreThan256Counters) {
  // Counters are stored by name, with no fixed table of cells to run out of.
  Registry registry;
  constexpr uint64_t kCounters = 1000;
  for (uint64_t i = 0; i < kCounters; ++i) {
    registry.GetCounter("c." + std::to_string(i)).Add(i + 1);
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), kCounters);
  for (uint64_t i = 0; i < kCounters; ++i) {
    EXPECT_EQ(snapshot.CounterOr("c." + std::to_string(i), 0), i + 1);
  }
}

TEST(ObsTest, HistogramBucketsAndQuantiles) {
  Registry registry;
  Histogram histogram = registry.GetHistogram("h");
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(5);
  histogram.Record(1000);
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot& h = FindHistogram(snapshot, "h");
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 1006u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1000u);
  uint64_t bucketed = 0;
  for (const HistogramBucket& bucket : h.buckets) {
    EXPECT_GT(bucket.count, 0u);  // only non-empty buckets materialize
    bucketed += bucket.count;
  }
  EXPECT_EQ(bucketed, 4u);
  EXPECT_LE(h.Quantile(0.0), h.Quantile(1.0));
  EXPECT_LE(h.Quantile(1.0), 1024.0);  // p100 within the top bucket's bound
}

// Values recorded one by one and the same values counted in batches and
// merged once per tick leave identical snapshots and telemetry streams.
TEST(ObsTest, HistogramMergeMatchesRecordingEachValue) {
  Registry each_registry, batch_registry;
  MemorySink each_sink, batch_sink;
  TelemetryOptions options;
  options.histograms = {"h"};
  options.source = "test";
  options.registry = &each_registry;
  TelemetryPipeline each_pipeline(&each_sink, options);
  options.registry = &batch_registry;
  TelemetryPipeline batch_pipeline(&batch_sink, options);
  Histogram each = each_registry.GetHistogram("h");
  Histogram batched = batch_registry.GetHistogram("h");

  Rng rng(11);
  for (uint64_t tick = 0; tick < 6; ++tick) {
    HistogramBatch batch;
    // Tick 3 records nothing: merging an empty batch is a no-op.
    const int values = tick == 3 ? 0 : 200 * static_cast<int>(tick + 1);
    for (int i = 0; i < values; ++i) {
      uint64_t value = rng.NextU64() >> rng.UniformInt(0, 63);
      if (i == 0) value = 0;
      if (i == 1) value = ~uint64_t{0};
      each.Record(value);
      batch.Record(value);
    }
    batched.Merge(batch);
    each_pipeline.Tick(tick);
    batch_pipeline.Tick(tick);
  }
  ASSERT_TRUE(each_pipeline.Finish("ok").ok());
  ASSERT_TRUE(batch_pipeline.Finish("ok").ok());

  EXPECT_EQ(FormatMetricsJson(batch_registry.Snapshot()),
            FormatMetricsJson(each_registry.Snapshot()));
  ASSERT_EQ(batch_sink.records().size(), each_sink.records().size());
  for (size_t r = 0; r < each_sink.records().size(); ++r) {
    EXPECT_EQ(FormatTelemetryRecord(batch_sink.records()[r]),
              FormatTelemetryRecord(each_sink.records()[r]));
  }
}

TEST(ObsTest, MetaIsCopiedIntoSnapshot) {
  Registry registry;
  registry.SetMeta("seed", "42");
  registry.SetMeta("seed", "43");  // last write wins
  EXPECT_EQ(registry.Snapshot().meta.at("seed"), "43");
}

TEST(ObsTest, ScopedObservabilityInstallsAndRestores) {
  ASSERT_EQ(GlobalMetrics(), nullptr);
  Registry outer;
  {
    ScopedObservability outer_scope(&outer, nullptr);
    EXPECT_EQ(GlobalMetrics(), &outer);
    EXPECT_TRUE(MetricsEnabled());
    GetCounter("depth").Increment();
    Registry inner;
    {
      ScopedObservability inner_scope(&inner, nullptr);
      EXPECT_EQ(GlobalMetrics(), &inner);
      GetCounter("depth").Increment();
    }
    EXPECT_EQ(GlobalMetrics(), &outer);  // previous sink restored
  }
  EXPECT_EQ(GlobalMetrics(), nullptr);
  EXPECT_EQ(outer.Snapshot().counters.at("depth"), 1u);
}

TEST(ObsTest, MetricsJsonIsVersionedAndEscaped) {
  Registry registry;
  registry.SetMeta("args", "--tree \"x\"\n");
  registry.GetCounter("c.one").Add(5);
  registry.GetHistogram("h").Record(9);
  std::string json = FormatMetricsJson(registry.Snapshot());
  EXPECT_NE(json.find("\"bcast_metrics_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"c.one\": 5"), std::string::npos);
  EXPECT_EQ(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"x\\\"\\n"), std::string::npos)  // escaped meta
      << json;
}

TEST(ObsTest, TraceRecorderCapturesSpans) {
  TraceRecorder recorder;
  {
    ScopedObservability scope(nullptr, &recorder);
    ScopedSpan outer("outer");
    ScopedSpan inner("inner");
  }
  std::vector<TraceRecorder::Event> events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close inner-first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].duration_ns, events[0].duration_ns);

  std::string json = FormatChromeTraceJson(recorder);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
}

TEST(ObsTest, SpanStartedUnderRecorderOutlivesUninstall) {
  // A span captures its recorder at construction; uninstalling the globals
  // mid-span must not lose or misroute the event.
  TraceRecorder recorder;
  {
    ScopedObservability scope(nullptr, &recorder);
    ScopedSpan span("bracketed");
  }
  EXPECT_EQ(recorder.Events().size(), 1u);
}

TEST(ObsTest, MonotonicClockAdvances) {
  uint64_t a = MonotonicNanos();
  uint64_t b = MonotonicNanos();
  EXPECT_LE(a, b);
}

TEST(ObsTest, WriteTextFileRejectsBadPath) {
  EXPECT_FALSE(WriteTextFile("/nonexistent-dir/x/y.json", "{}").ok());
}

TEST(JsonWriterTest, NonFiniteDoublesSerializeAsNull) {
  // JSON has no NaN/Infinity literal; the writer must not emit one (it would
  // poison every downstream parser, including `bcastctl top --replay`).
  std::string out;
  JsonWriter json(&out, JsonWriter::Layout::kCompact);
  json.BeginArray();
  json.Double(std::numeric_limits<double>::quiet_NaN());
  json.Double(std::numeric_limits<double>::infinity());
  json.Double(-std::numeric_limits<double>::infinity());
  json.Double(2.5);
  json.EndArray();
  EXPECT_EQ(out, "[null,null,null,2.5]");
}

TEST(JsonWriterTest, DoublesRoundTripShortest) {
  std::string out;
  JsonWriter json(&out);
  json.Double(0.1);
  EXPECT_EQ(out, "0.1");
  out.clear();
  JsonWriter json2(&out);
  json2.Double(1.0 / 3.0);
  EXPECT_EQ(std::stod(out), 1.0 / 3.0);
  // The "%.*g" text at the smallest precision that round-trips, across
  // magnitudes, subnormals and the largest finite value.
  const std::pair<double, const char*> pinned[] = {
      {1.0 / 3.0, "0.3333333333333333"},
      {1e23, "1e+23"},
      {5e-324, "5e-324"},
      {1.7976931348623157e308, "1.7976931348623157e+308"},
      {0.1 + 0.2, "0.30000000000000004"},
      {123456789.0, "123456789"},
      {1e-5, "1e-05"},
      {-2.5, "-2.5"},
      {0.0, "0"},
      {2.2250738585072014e-308, "2.2250738585072014e-308"},
      {4096.0, "4096"}};
  for (const auto& [value, text] : pinned) {
    out.clear();
    JsonWriter writer(&out);
    writer.Double(value);
    EXPECT_EQ(out, text);
  }
}

TEST(JsonWriterTest, CompactLayoutIsSingleLine) {
  std::string out;
  JsonWriter json(&out, JsonWriter::Layout::kCompact);
  json.BeginObject();
  json.Key("a");
  json.BeginObject();
  json.Key("b");
  json.UInt(1);
  json.EndObject();
  json.Key("c");
  json.BeginArray();
  json.Int(-2);
  json.Bool(true);
  json.Null();
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(out, "{\"a\":{\"b\":1},\"c\":[-2,true,null]}");
}

TEST(JsonWriterTest, Utf8PassesThroughOnlyControlsEscaped) {
  // UTF-8 SLO names must survive byte-for-byte; only the JSON-mandated
  // escapes (quote, backslash, controls) may be rewritten.
  std::string out;
  JsonWriter json(&out, JsonWriter::Layout::kCompact);
  json.String("délai_p95 响应 \"q\"\t");
  EXPECT_EQ(out, "\"délai_p95 响应 \\\"q\\\"\\t\"");
}

TEST(JsonWriterTest, EmptyContainers) {
  std::string pretty;
  JsonWriter p(&pretty);
  p.BeginObject();
  p.EndObject();
  EXPECT_EQ(pretty, "{}");
  std::string compact;
  JsonWriter c(&compact, JsonWriter::Layout::kCompact);
  c.BeginArray();
  c.EndArray();
  EXPECT_EQ(compact, "[]");
}

}  // namespace
}  // namespace bcast::obs
