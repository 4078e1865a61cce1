// Streaming-telemetry tests (obs/timeseries.h, obs/slo.h, obs/stream.h) and
// the determinism contract of the wired engines: reports and digests must be
// byte-identical with a telemetry pipeline attached or not, for every thread
// count, and the fin record must land on every exit path — ok, degraded and
// error alike.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/planner.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/stream.h"
#include "obs/timeseries.h"
#include "popsim/popsim.h"
#include "sim/server_sim.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "workload/weights.h"

namespace bcast {
namespace {

using obs::DeltaSnapshotter;
using obs::JsonlFileSink;
using obs::MemorySink;
using obs::ParseSloSpec;
using obs::ParseSloSpecList;
using obs::Series;
using obs::SeriesSet;
using obs::SloAlert;
using obs::SloEngine;
using obs::SloSpec;
using obs::TelemetryOptions;
using obs::TelemetryPipeline;
using obs::TelemetryRecord;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// Series ring buffer.
// ---------------------------------------------------------------------------

TEST(SeriesTest, EmptySeriesHasNaNLast) {
  Series series("s", 4);
  EXPECT_TRUE(series.empty());
  EXPECT_TRUE(std::isnan(series.Last()));
  EXPECT_EQ(series.LastIndex(), 0u);
  EXPECT_TRUE(std::isnan(series.WindowMean(4)));
  EXPECT_TRUE(std::isnan(series.WindowMax(4)));
}

TEST(SeriesTest, RingEvictsOldestFirst) {
  Series series("s", 3);
  for (uint64_t i = 0; i < 5; ++i) {
    series.Append(i, static_cast<double>(i) * 10.0);
  }
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.total_appended(), 5u);
  // Oldest-first: points 2, 3, 4 survive.
  EXPECT_EQ(series.At(0).index, 2u);
  EXPECT_EQ(series.At(2).index, 4u);
  EXPECT_DOUBLE_EQ(series.Last(), 40.0);
  EXPECT_EQ(series.LastIndex(), 4u);
  auto points = series.Points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].value, 20.0);
}

TEST(SeriesTest, WindowedReductionsSkipNaN) {
  Series series("s", 8);
  series.Append(0, 10.0);
  series.Append(1, kNaN);
  series.Append(2, 30.0);
  EXPECT_DOUBLE_EQ(series.WindowMean(3), 20.0);
  EXPECT_DOUBLE_EQ(series.WindowMax(3), 30.0);
  // A window with only the NaN point has no finite observation.
  EXPECT_DOUBLE_EQ(series.WindowMean(1), 30.0);
  Series all_nan("n", 4);
  all_nan.Append(0, kNaN);
  EXPECT_TRUE(std::isnan(all_nan.WindowMean(4)));
}

TEST(SeriesSetTest, StableCreationOrderAndLookup) {
  SeriesSet set(16);
  set.GetOrCreate("b");
  set.GetOrCreate("a");
  Series* b_again = set.GetOrCreate("b");
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.at(0).name(), "b");
  EXPECT_EQ(set.at(1).name(), "a");
  EXPECT_EQ(set.Find("b"), b_again);
  EXPECT_EQ(set.Find("missing"), nullptr);
}

// ---------------------------------------------------------------------------
// Delta snapshotting.
// ---------------------------------------------------------------------------

TEST(DeltaSnapshotterTest, CountersDifferenceAgainstZeroBaseline) {
  obs::Registry registry;
  registry.GetCounter("c").Add(5);
  DeltaSnapshotter deltas;
  auto first = deltas.Take(registry.Snapshot());
  EXPECT_EQ(first.counters.at("c"), 5u);
  registry.GetCounter("c").Add(3);
  auto second = deltas.Take(registry.Snapshot());
  EXPECT_EQ(second.counters.at("c"), 3u);
  // Unchanged counter reports a zero delta, not absence.
  auto third = deltas.Take(registry.Snapshot());
  EXPECT_EQ(third.counters.at("c"), 0u);
}

TEST(DeltaSnapshotterTest, HistogramWindowIsBucketDifference) {
  obs::Registry registry;
  obs::Histogram hist = registry.GetHistogram("h");
  hist.Record(4);
  hist.Record(4);
  DeltaSnapshotter deltas;
  auto first = deltas.Take(registry.Snapshot());
  ASSERT_EQ(first.histograms.size(), 1u);
  EXPECT_EQ(first.histograms[0].count, 2u);
  // Only the new recordings appear in the second window.
  hist.Record(1024);
  auto second = deltas.Take(registry.Snapshot());
  ASSERT_EQ(second.histograms.size(), 1u);
  EXPECT_EQ(second.histograms[0].count, 1u);
  EXPECT_GE(second.histograms[0].Quantile(0.5), 512.0);
  // Nothing recorded -> empty window.
  auto third = deltas.Take(registry.Snapshot());
  ASSERT_EQ(third.histograms.size(), 1u);
  EXPECT_EQ(third.histograms[0].count, 0u);
}

// ---------------------------------------------------------------------------
// SLO specs and burn-rate engine.
// ---------------------------------------------------------------------------

TEST(SloSpecTest, ParsesFullGrammarAndRoundTrips) {
  auto spec = ParseSloSpec("p95_wait:sim.realized_wait<=40@0.95/16");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "p95_wait");
  EXPECT_EQ(spec->series, "sim.realized_wait");
  EXPECT_EQ(spec->op, SloSpec::Op::kLessEq);
  EXPECT_DOUBLE_EQ(spec->threshold, 40.0);
  EXPECT_DOUBLE_EQ(spec->target, 0.95);
  EXPECT_EQ(spec->window, 16u);
  auto reparsed = ParseSloSpec(FormatSloSpec(*spec));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(FormatSloSpec(*reparsed), FormatSloSpec(*spec));
}

TEST(SloSpecTest, DefaultsAndList) {
  auto spec = ParseSloSpec("delivery:sim.delivery_rate>=0.99");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->op, SloSpec::Op::kGreaterEq);
  EXPECT_DOUBLE_EQ(spec->target, 0.99);
  EXPECT_EQ(spec->window, 32u);
  auto list = ParseSloSpecList(
      "a:x<=1;b:y>=2@0.9;c:z<=3/8");
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list->size(), 3u);
}

TEST(SloSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseSloSpec("").ok());
  EXPECT_FALSE(ParseSloSpec("noseries").ok());
  EXPECT_FALSE(ParseSloSpec("n:s<40").ok());          // bad operator
  EXPECT_FALSE(ParseSloSpec("n:s<=x").ok());          // bad threshold
  EXPECT_FALSE(ParseSloSpec("n:s<=1@1.5").ok());      // target out of range
  EXPECT_FALSE(ParseSloSpec("n:s<=1@0").ok());        // target out of range
  EXPECT_FALSE(ParseSloSpec("n:s<=1/0").ok());        // zero window
}

TEST(SloEngineTest, BurnRateFiresAndResolvesEdgeTriggered) {
  auto spec = ParseSloSpec("lat:w<=10@0.5/4");
  ASSERT_TRUE(spec.ok());
  SloEngine engine({*spec});
  SeriesSet series(16);
  Series* w = series.GetOrCreate("w");
  std::vector<SloAlert> alerts;
  // Two violations in a 4-tick window with target 0.5 -> burn 1.0 fires.
  const double values[] = {5.0, 20.0, 20.0, 5.0, 5.0, 5.0, 5.0};
  for (uint64_t i = 0; i < 7; ++i) {
    w->Append(i, values[i]);
    engine.Tick(i, series, &alerts);
  }
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_TRUE(alerts[0].firing);
  EXPECT_EQ(alerts[0].index, 1u);
  EXPECT_GE(alerts[0].burn_rate, 1.0);
  EXPECT_FALSE(alerts[1].firing);
  EXPECT_EQ(alerts[1].slo, "lat");
  const obs::SloState& state = engine.states()[0];
  EXPECT_EQ(state.ticks, 7u);
  EXPECT_EQ(state.bad_ticks, 2u);
  EXPECT_FALSE(state.firing);
  EXPECT_NEAR(state.budget_consumed, 2.0 / (7.0 * 0.5), 1e-12);
}

TEST(SloEngineTest, SkipsTicksWithoutAnObservation) {
  auto spec = ParseSloSpec("lat:w<=10@0.5/4");
  ASSERT_TRUE(spec.ok());
  SloEngine engine({*spec});
  SeriesSet series(16);
  Series* w = series.GetOrCreate("w");
  std::vector<SloAlert> alerts;
  w->Append(0, 20.0);
  engine.Tick(0, series, &alerts);
  // No point at index 1 and a NaN at index 2: both skipped, state frozen.
  engine.Tick(1, series, &alerts);
  w->Append(2, kNaN);
  engine.Tick(2, series, &alerts);
  EXPECT_EQ(engine.states()[0].ticks, 1u);
  EXPECT_EQ(engine.states()[0].bad_ticks, 1u);
}

// ---------------------------------------------------------------------------
// Record serialization and the JSONL round trip.
// ---------------------------------------------------------------------------

TEST(TelemetryRecordTest, TickRoundTripsThroughJsonl) {
  TelemetryRecord record;
  record.type = TelemetryRecord::Type::kTick;
  record.index = 17;
  record.values["a.b"] = 2.5;
  record.values["nan_marker"] = kNaN;
  std::string line = obs::FormatTelemetryRecord(record);
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  EXPECT_NE(line.find("null"), std::string::npos) << line;
  auto parsed = obs::ParseTelemetryRecord(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, TelemetryRecord::Type::kTick);
  EXPECT_EQ(parsed->index, 17u);
  EXPECT_DOUBLE_EQ(parsed->values.at("a.b"), 2.5);
  EXPECT_TRUE(std::isnan(parsed->values.at("nan_marker")));
}

TEST(TelemetryRecordTest, MetaCarriesUtf8SloNames) {
  TelemetryRecord record;
  record.type = TelemetryRecord::Type::kMeta;
  record.meta["source"] = "test";
  record.slos.push_back("délai_p95:sim.realized_wait<=40@0.9/16");
  auto parsed = obs::ParseTelemetryRecord(obs::FormatTelemetryRecord(record));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->slos.size(), 1u);
  EXPECT_EQ(parsed->slos[0], record.slos[0]);
  EXPECT_EQ(parsed->meta.at("source"), "test");
}

TEST(TelemetryRecordTest, ParserRejectsGarbage) {
  EXPECT_FALSE(obs::ParseTelemetryRecord("not json").ok());
  EXPECT_FALSE(obs::ParseTelemetryRecord("{\"t\":\"tick\"}").ok())
      << "missing schema version must be rejected";
  EXPECT_FALSE(
      obs::ParseTelemetryRecord("{\"v\":99,\"t\":\"tick\",\"i\":0}").ok());
  EXPECT_FALSE(
      obs::ParseTelemetryRecord("{\"v\":1,\"t\":\"wat\",\"i\":0}").ok());
}

TEST(TelemetryRecordTest, JsonlParserReportsLineNumbers) {
  auto records = obs::ParseTelemetryJsonl(
      "{\"v\":1,\"t\":\"tick\",\"i\":0,\"series\":{}}\n"
      "\n"
      "{broken\n");
  ASSERT_FALSE(records.ok());
  EXPECT_NE(records.status().ToString().find("3"), std::string::npos)
      << records.status().ToString();
}

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

TEST(JsonlFileSinkTest, OpenFailsFastOnUnwritablePath) {
  auto sink = JsonlFileSink::Open("/nonexistent_dir_xyz/telemetry.jsonl");
  ASSERT_FALSE(sink.ok());
  EXPECT_NE(sink.status().ToString().find("cannot open for writing"),
            std::string::npos)
      << sink.status().ToString();
}

TEST(JsonlFileSinkTest, WritesParseableStream) {
  std::string path = ::testing::TempDir() + "/telemetry_sink.jsonl";
  {
    auto sink = JsonlFileSink::Open(path);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    TelemetryRecord tick;
    tick.type = TelemetryRecord::Type::kTick;
    for (uint64_t i = 0; i < 3; ++i) {
      tick.index = i;
      tick.values["x"] = static_cast<double>(i);
      sink->Emit(tick);
    }
    EXPECT_TRUE(sink->Flush().ok());
    EXPECT_EQ(sink->dropped(), 0u);
  }
  auto records = obs::ReadTelemetryFile(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[2].index, 2u);
  std::remove(path.c_str());
}

TEST(JsonlFileSinkTest, SmallHighWaterMarkStillLosesNothing) {
  std::string path = ::testing::TempDir() + "/telemetry_highwater.jsonl";
  {
    auto sink = JsonlFileSink::Open(path, /*max_buffered_bytes=*/16);
    ASSERT_TRUE(sink.ok());
    TelemetryRecord tick;
    tick.type = TelemetryRecord::Type::kTick;
    for (uint64_t i = 0; i < 50; ++i) {
      tick.index = i;
      tick.values["x"] = 1.0;
      sink->Emit(tick);
    }
    EXPECT_TRUE(sink->Flush().ok());
  }
  auto records = obs::ReadTelemetryFile(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 50u);
  std::remove(path.c_str());
}

TEST(JsonlFileSinkTest, FailedWriteCountsEveryLostRecord) {
  // /dev/full accepts the open and fails every flush: whether the records
  // sat in the buffer (default high-water mark) or went out one by one
  // (1 byte), each of the ten is lost and counted.
  for (size_t max_buffered_bytes : {size_t{1}, size_t{1} << 20}) {
    SCOPED_TRACE(max_buffered_bytes);
    auto sink = JsonlFileSink::Open("/dev/full", max_buffered_bytes);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    TelemetryRecord tick;
    tick.type = TelemetryRecord::Type::kTick;
    for (uint64_t i = 0; i < 10; ++i) {
      tick.index = i;
      tick.values["x"] = 1.0;
      sink->Emit(tick);
    }
    EXPECT_FALSE(sink->Flush().ok());
    EXPECT_EQ(sink->dropped(), 10u);
  }
}

// ---------------------------------------------------------------------------
// Pipeline end to end (MemorySink).
// ---------------------------------------------------------------------------

TEST(TelemetryPipelineTest, EmitsMetaTicksAlertsAndFin) {
  MemorySink sink;
  TelemetryOptions options;
  options.source = "test";
  options.meta["seed"] = "42";
  auto spec = ParseSloSpec("hot:x<=1@0.5/2");
  ASSERT_TRUE(spec.ok());
  options.slos.push_back(*spec);
  TelemetryPipeline pipeline(&sink, options);
  // Meta goes out immediately.
  ASSERT_EQ(sink.records().size(), 1u);
  EXPECT_EQ(sink.records()[0].type, TelemetryRecord::Type::kMeta);
  EXPECT_EQ(sink.records()[0].meta.at("source"), "test");
  ASSERT_EQ(sink.records()[0].slos.size(), 1u);

  pipeline.Observe("x", 0.5);
  pipeline.Tick(0);
  pipeline.Observe("x", 5.0);  // violation; window 2, target 0.5 -> fires
  pipeline.Tick(1);
  EXPECT_TRUE(pipeline.Finish("ok").ok());
  EXPECT_TRUE(pipeline.finished());

  ASSERT_EQ(sink.records().size(), 5u);  // meta, tick, tick, alert, fin
  EXPECT_EQ(sink.records()[1].type, TelemetryRecord::Type::kTick);
  EXPECT_EQ(sink.records()[3].type, TelemetryRecord::Type::kAlert);
  ASSERT_TRUE(sink.records()[3].alert.has_value());
  EXPECT_TRUE(sink.records()[3].alert->firing);
  const TelemetryRecord& fin = sink.records().back();
  EXPECT_EQ(fin.type, TelemetryRecord::Type::kFin);
  EXPECT_EQ(fin.ticks, 2u);
  EXPECT_EQ(fin.alerts, 1u);
  EXPECT_EQ(fin.dropped, 0u);
  EXPECT_EQ(fin.meta.at("outcome"), "ok");
}

TEST(TelemetryPipelineTest, FinishIsIdempotentFirstOutcomeWins) {
  MemorySink sink;
  TelemetryPipeline pipeline(&sink, TelemetryOptions{});
  pipeline.Tick(0);
  EXPECT_TRUE(pipeline.Finish("degraded").ok());
  EXPECT_TRUE(pipeline.Finish("ok").ok());
  size_t fins = 0;
  for (const TelemetryRecord& record : sink.records()) {
    if (record.type == TelemetryRecord::Type::kFin) {
      ++fins;
      EXPECT_EQ(record.meta.at("outcome"), "degraded");
    }
  }
  EXPECT_EQ(fins, 1u);
}

TEST(TelemetryPipelineTest, RegistryDeltasBecomeSeries) {
  obs::Registry registry;
  MemorySink sink;
  TelemetryOptions options;
  options.registry = &registry;
  options.counters = {"work.done"};
  options.histograms = {"work.latency"};
  TelemetryPipeline pipeline(&sink, options);

  registry.GetCounter("work.done").Add(4);
  registry.GetHistogram("work.latency").Record(8);
  registry.GetHistogram("work.latency").Record(8);
  pipeline.Tick(0);
  registry.GetCounter("work.done").Add(1);
  pipeline.Tick(1);  // nothing recorded into the histogram this tick

  const Series* delta = pipeline.series().Find("work.done.delta");
  ASSERT_NE(delta, nullptr);
  ASSERT_EQ(delta->size(), 2u);
  EXPECT_DOUBLE_EQ(delta->At(0).value, 4.0);
  EXPECT_DOUBLE_EQ(delta->At(1).value, 1.0);
  const Series* p50 = pipeline.series().Find("work.latency.p50");
  ASSERT_NE(p50, nullptr);
  ASSERT_EQ(p50->size(), 2u);
  EXPECT_GT(p50->At(0).value, 0.0);
  EXPECT_TRUE(std::isnan(p50->At(1).value))
      << "an empty histogram window must be a NaN point, not 0";
}

TEST(TelemetryPipelineTest, FileRoundTripRebuildsIdenticalSeries) {
  std::string path = ::testing::TempDir() + "/telemetry_roundtrip.jsonl";
  auto sink = JsonlFileSink::Open(path);
  ASSERT_TRUE(sink.ok());
  TelemetryOptions options;
  options.source = "roundtrip";
  TelemetryPipeline pipeline(&*sink, options);
  for (uint64_t i = 0; i < 20; ++i) {
    pipeline.Observe("a", static_cast<double>(i) * 0.5);
    if (i % 3 != 0) pipeline.Observe("b", 100.0 - static_cast<double>(i));
    pipeline.Tick(i);
  }
  ASSERT_TRUE(pipeline.Finish("ok").ok());

  auto records = obs::ReadTelemetryFile(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  SeriesSet rebuilt = obs::RebuildSeries(*records);
  const SeriesSet& live = pipeline.series();
  ASSERT_EQ(rebuilt.size(), live.size());
  for (size_t s = 0; s < live.size(); ++s) {
    const Series& a = live.at(s);
    const Series& b = rebuilt.at(s);
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.At(i).index, b.At(i).index);
      EXPECT_DOUBLE_EQ(a.At(i).value, b.At(i).value);
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Engine wiring: adaptive server.
// ---------------------------------------------------------------------------

AdaptiveServerOptions SmallAdaptiveOptions() {
  AdaptiveServerOptions options;
  options.num_cycles = 12;
  options.queries_per_cycle = 60;
  options.num_channels = 2;
  options.replan_every = 2;
  return options;
}

TEST(AdaptiveTelemetryTest, OneTickPerCycleAndOkFin) {
  MemorySink sink;
  TelemetryOptions telemetry_options;
  telemetry_options.source = "adaptive_server";
  TelemetryPipeline pipeline(&sink, telemetry_options);
  AdaptiveServerOptions options = SmallAdaptiveOptions();
  options.telemetry = &pipeline;
  Rng rng(42);
  auto report =
      RunAdaptiveServer(ZipfWeights(30, 1.0), nullptr, &rng, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(pipeline.finished())
      << "RunAdaptiveServer must Finish() the pipeline itself";
  EXPECT_EQ(pipeline.ticks(), static_cast<uint64_t>(options.num_cycles));
  const TelemetryRecord& fin = sink.records().back();
  ASSERT_EQ(fin.type, TelemetryRecord::Type::kFin);
  EXPECT_EQ(fin.meta.at("outcome"), "ok");
  // Cycle ordinals key the ticks.
  const Series* waits = pipeline.series().Find("sim.realized_wait");
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->At(0).index, 0u);
  EXPECT_EQ(waits->LastIndex(),
            static_cast<uint64_t>(options.num_cycles - 1));
  ASSERT_NE(pipeline.series().Find("sim.served_rung"), nullptr);
}

TEST(AdaptiveTelemetryTest, ReportIsByteIdenticalWithTelemetryOn) {
  std::vector<double> weights = ZipfWeights(30, 1.0);
  Rng rng_plain(7);
  auto plain =
      RunAdaptiveServer(weights, nullptr, &rng_plain, SmallAdaptiveOptions());
  ASSERT_TRUE(plain.ok());

  MemorySink sink;
  TelemetryPipeline pipeline(&sink, TelemetryOptions{});
  AdaptiveServerOptions options = SmallAdaptiveOptions();
  options.telemetry = &pipeline;
  Rng rng_telemetry(7);
  auto with_telemetry =
      RunAdaptiveServer(weights, nullptr, &rng_telemetry, options);
  ASSERT_TRUE(with_telemetry.ok());

  ASSERT_EQ(plain->cycles.size(), with_telemetry->cycles.size());
  for (size_t i = 0; i < plain->cycles.size(); ++i) {
    const CycleStats& a = plain->cycles[i];
    const CycleStats& b = with_telemetry->cycles[i];
    // realized_data_wait may be NaN (undelivered-only cycle); compare bits
    // via the NaN-tolerant pattern.
    EXPECT_TRUE(a.realized_data_wait == b.realized_data_wait ||
                (std::isnan(a.realized_data_wait) &&
                 std::isnan(b.realized_data_wait)));
    EXPECT_EQ(a.oracle_data_wait, b.oracle_data_wait);
    EXPECT_EQ(a.estimation_error, b.estimation_error);
    EXPECT_EQ(a.delivery_success_rate, b.delivery_success_rate);
    EXPECT_EQ(a.served_provenance, b.served_provenance);
  }
  EXPECT_EQ(plain->stale_serves, with_telemetry->stale_serves);
  EXPECT_EQ(plain->backoff_skips, with_telemetry->backoff_skips);
}

TEST(AdaptiveTelemetryTest, FlushOnDegradeWritesErrorFinOnFailedRun) {
  // Satellite regression: allow_stale=false + injected task faults makes
  // RunAdaptiveServer return an error mid-loop. The guard must still land a
  // fin record with outcome "error" — the stream is never truncated.
  MemorySink sink;
  TelemetryPipeline pipeline(&sink, TelemetryOptions{});
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
  options.telemetry = &pipeline;
  Rng rng(5);
  std::vector<double> weights(10, 1.0);
  auto report = RunAdaptiveServer(weights, nullptr, &rng, options);
  ASSERT_FALSE(report.ok()) << "the fault injection never failed a replan";
  EXPECT_TRUE(pipeline.finished());
  ASSERT_FALSE(sink.records().empty());
  const TelemetryRecord& fin = sink.records().back();
  ASSERT_EQ(fin.type, TelemetryRecord::Type::kFin);
  EXPECT_EQ(fin.meta.at("outcome"), "error");
}

TEST(AdaptiveTelemetryTest, StaleServesYieldDegradedFin) {
  MemorySink sink;
  TelemetryPipeline pipeline(&sink, TelemetryOptions{});
  AdaptiveServerOptions options;
  options.num_cycles = 50;
  options.queries_per_cycle = 50;
  options.num_channels = 2;
  options.strategy = PlanStrategy::kOptimal;
  options.replan_every = 1;
  options.planner_threads = 2;
  options.task_faults.fail_fraction = 0.10;
  options.task_faults.seed = 7;
  options.telemetry = &pipeline;
  Rng rng(123);
  std::vector<double> weights(12, 1.0);
  auto report = RunAdaptiveServer(
      weights, [](int, std::vector<double>* w) { (*w)[0] += 0.25; }, &rng,
      options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GE(report->stale_serves, 1) << "no replan failed; nothing degraded";
  const TelemetryRecord& fin = sink.records().back();
  ASSERT_EQ(fin.type, TelemetryRecord::Type::kFin);
  EXPECT_EQ(fin.meta.at("outcome"), "degraded");
}

// ---------------------------------------------------------------------------
// Engine wiring: population simulator.
// ---------------------------------------------------------------------------

TEST(PopsimTelemetryTest, DigestIdenticalWithTelemetryAcrossThreadCounts) {
  auto tree = MakeFullBalancedTree(3, 4, ZipfWeights(27, 0.8));
  ASSERT_TRUE(tree.ok());
  PlannerOptions plan_options;
  plan_options.num_channels = 2;
  plan_options.strategy = PlanStrategy::kSorting;
  auto plan = PlanBroadcast(*tree, plan_options);
  ASSERT_TRUE(plan.ok());
  auto sim = PopulationSimulator::Create(*tree, plan->schedule);
  ASSERT_TRUE(sim.ok());

  PopSimOptions base;
  base.population.num_clients = 4000;
  base.seed = 0xFEED;

  uint64_t reference_digest = 0;
  for (int threads : {1, 8}) {
    PopSimOptions plain = base;
    plain.num_threads = threads;
    auto plain_report = sim->Run(plain);
    ASSERT_TRUE(plain_report.ok()) << plain_report.status().ToString();

    MemorySink sink;
    TelemetryOptions telemetry_options;
    telemetry_options.source = "popsim";
    TelemetryPipeline pipeline(&sink, telemetry_options);
    PopSimOptions instrumented = base;
    instrumented.num_threads = threads;
    instrumented.telemetry = &pipeline;
    auto report = sim->Run(instrumented);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    EXPECT_EQ(report->digest, plain_report->digest)
        << "telemetry changed the outcome digest at threads=" << threads;
    if (reference_digest == 0) reference_digest = report->digest;
    EXPECT_EQ(report->digest, reference_digest);

    // One tick per shard, keyed by shard ordinal, emitted post-join.
    EXPECT_TRUE(pipeline.finished());
    EXPECT_EQ(pipeline.ticks(),
              static_cast<uint64_t>(report->shards_used));
    const TelemetryRecord& fin = sink.records().back();
    ASSERT_EQ(fin.type, TelemetryRecord::Type::kFin);
    EXPECT_EQ(fin.meta.at("outcome"), "ok");
    const Series* clients = pipeline.series().Find("popsim.shard.clients");
    ASSERT_NE(clients, nullptr);
    double total = 0.0;
    for (const obs::SeriesPoint& point : clients->Points()) {
      total += point.value;
    }
    EXPECT_DOUBLE_EQ(total,
                     static_cast<double>(base.population.num_clients));
  }
}

TEST(PopsimTelemetryTest, ShardTicksAreDeterministicAcrossThreadCounts) {
  auto tree = MakeFullBalancedTree(3, 4, ZipfWeights(27, 0.8));
  ASSERT_TRUE(tree.ok());
  PlannerOptions plan_options;
  plan_options.num_channels = 2;
  plan_options.strategy = PlanStrategy::kSorting;
  auto plan = PlanBroadcast(*tree, plan_options);
  ASSERT_TRUE(plan.ok());
  auto sim = PopulationSimulator::Create(*tree, plan->schedule);
  ASSERT_TRUE(sim.ok());

  auto run = [&](int threads) {
    auto sink = std::make_unique<MemorySink>();
    TelemetryPipeline pipeline(sink.get(), TelemetryOptions{});
    PopSimOptions options;
    options.population.num_clients = 3000;
    options.seed = 0xABCD;
    options.num_threads = threads;
    options.telemetry = &pipeline;
    auto report = sim->Run(options);
    EXPECT_TRUE(report.ok());
    std::vector<std::string> lines;
    for (const TelemetryRecord& record : sink->records()) {
      lines.push_back(obs::FormatTelemetryRecord(record));
    }
    return lines;
  };
  EXPECT_EQ(run(1), run(8))
      << "the telemetry stream itself must be byte-identical across "
         "thread counts";
}

}  // namespace
}  // namespace bcast
