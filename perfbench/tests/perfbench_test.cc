// Tests of the benchmark's own logic: the percentile rule, self-time
// accounting, failure tallies, how repeats become latency samples and the
// determinism of the input generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileRule, CountsSamplesBeyondTheNearestRank) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9);
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10);
  EXPECT_EQ(SamplesBeyond(20, 50.0), 10);
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0);
}

TEST(PercentileRule, PicksTheHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(99), 75.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(samples, 50.0), 50.0);
  EXPECT_EQ(Percentile(samples, 90.0), 90.0);
  EXPECT_EQ(Percentile(samples, 99.0), 99.0);
  EXPECT_EQ(Percentile(samples, 100.0), 100.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_EQ(Percentile({7.0}, 99.0), 7.0);
}

Span MakeSpan(uint64_t start, uint64_t end, int parent) {
  Span span;
  span.name = "x";
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      MakeSpan(0, 100, -1),  // root
      MakeSpan(10, 30, 0),   // child
      MakeSpan(20, 50, 0),   // overlaps the first child: union 10..50
      MakeSpan(60, 70, 0),
      MakeSpan(25, 28, 1),   // grandchild: counts against span 1 only
  };
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100u - 40u - 10u);
  EXPECT_EQ(self[1], 20u - 3u);
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 10u);
  EXPECT_EQ(self[4], 3u);
}

TEST(SelfTime, ClipsChildrenToTheParentInterval) {
  const std::vector<Span> spans = {MakeSpan(10, 20, -1), MakeSpan(5, 15, 0),
                                   MakeSpan(18, 40, 0)};
  EXPECT_EQ(SelfTimesNs(spans)[0], 10u - 5u - 2u);
}

TEST(SelfTime, RecorderNestsScopedSpans) {
  SpanRecorder recorder;
  recorder.set_enabled(true);
  {
    ScopedSpan outer(&recorder, "outer", 3);
    { ScopedSpan inner(&recorder, "inner", 3); }
  }
  recorder.set_enabled(false);
  { ScopedSpan ignored(&recorder, "ignored", 4); }
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[0].parent, -1);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[1].op, 3);
  const std::vector<uint64_t> self = SelfTimesNs(recorder.spans());
  const Span& outer = recorder.spans()[0];
  const Span& inner = recorder.spans()[1];
  EXPECT_EQ(self[0] + (inner.end_ns - inner.start_ns),
            outer.end_ns - outer.start_ns);
}

TEST(FailedRatio, CountsFailuresAgainstAttempts) {
  Tally tally;
  EXPECT_EQ(tally.failed_ratio(), 0.0);
  tally.Ok();
  tally.Record(true, "unused");
  tally.Record(false, "verifier violation");
  tally.RecordMany(7, 0, "unused");
  tally.RecordMany(10, 2, "two clients failed");
  EXPECT_EQ(tally.attempted(), 20);
  EXPECT_EQ(tally.failed(), 3);
  EXPECT_DOUBLE_EQ(tally.failed_ratio(), 3.0 / 20.0);
  ASSERT_EQ(tally.messages().size(), 2u);
  EXPECT_EQ(tally.messages()[0], "verifier violation");
  tally.Fail("set-up");
  EXPECT_EQ(tally.attempted(), 21);
  EXPECT_EQ(tally.failed(), 4);
}

double ReportedMetric(const WorkloadResult& result, const std::string& name) {
  for (const Metric& metric : result.metrics) {
    if (metric.name == name) return metric.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return 0.0;
}

TEST(LatencySamples, RepeatsBecomeSamplesAsConfigured) {
  Measurements m;
  m.tail_percentile = 50.0;
  m.work_per_pass = 20;
  m.passes.untraced_passes = 3;
  m.passes.untraced_s = 0.24;
  for (size_t op = 0; op < 20; ++op) {
    for (double ms : {1.0, 2.0, 9.0}) m.AddLatency(op, ms);
  }
  auto report = [&](Repeats repeats) {
    m.repeats = repeats;
    WorkloadResult result;
    Report(RunConfig{}, m, SpanRecorder(), {}, &result);
    EXPECT_EQ(result.tally.failed(), 0);
    return result;
  };

  const WorkloadResult median = report(Repeats::kMedian);
  EXPECT_DOUBLE_EQ(ReportedMetric(median, "p50_ms"), 2.0);
  EXPECT_NEAR(ReportedMetric(median, "throughput_per_s"), 20 / 0.040, 1e-9);

  const WorkloadResult mean = report(Repeats::kMean);
  EXPECT_DOUBLE_EQ(ReportedMetric(mean, "p50_ms"), 4.0);
  EXPECT_NEAR(ReportedMetric(mean, "throughput_per_s"), 20 / 0.080, 1e-9);

  // Pooled: 60 samples, a third of them 1 ms; throughput from pass time.
  const WorkloadResult pooled = report(Repeats::kPooled);
  EXPECT_DOUBLE_EQ(ReportedMetric(pooled, "p50_ms"), 2.0);
  EXPECT_NEAR(ReportedMetric(pooled, "throughput_per_s"), 60 / 0.24, 1e-9);
}

TEST(WeightedQuantile, FollowsTheWeights) {
  const std::vector<double> values = {5, 1, 3};
  EXPECT_EQ(WeightedQuantile(values, {1, 98, 1}, 0.5), 1.0);
  EXPECT_EQ(WeightedQuantile(values, {1, 98, 1}, 0.99), 3.0);
  EXPECT_EQ(WeightedQuantile(values, {1, 98, 1}, 1.0), 5.0);
}

TEST(Inputs, PlanStreamIsDeterminedBySeed) {
  const auto a = MakePlanStream(7, 48);
  const auto b = MakePlanStream(7, 48);
  const auto c = MakePlanStream(8, 48);
  ASSERT_EQ(a.size(), 48u);
  std::vector<std::string> trees_a, trees_c;
  bool reordered = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tree.ToString(), b[i].tree.ToString());
    EXPECT_EQ(a[i].channels, b[i].channels);
    EXPECT_LE(a[i].tree.num_nodes(), 64);
    EXPECT_GE(a[i].tree.num_data_nodes(), 10);
    EXPECT_LE(a[i].tree.num_data_nodes(), 15);
    reordered |= a[i].tree.ToString() != c[i].tree.ToString();
    trees_a.push_back(std::to_string(a[i].channels) + a[i].tree.ToString());
    trees_c.push_back(std::to_string(c[i].channels) + c[i].tree.ToString());
  }
  EXPECT_TRUE(reordered);
  std::sort(trees_a.begin(), trees_a.end());
  std::sort(trees_c.begin(), trees_c.end());
  EXPECT_EQ(trees_a, trees_c);  // the same trees, in another order
}

TEST(Inputs, FleetIsDeterminedBySeed) {
  const auto catalog = MakeFleetCatalog();
  ASSERT_EQ(catalog.size(), static_cast<size_t>(kFleetCatalogItems));
  for (int f = 0; f < kFleetsPerPass; ++f) {
    auto x = MakeFleetOptions(7, f);
    auto y = MakeFleetOptions(7, f);
    auto z = MakeFleetOptions(8, f);
    ASSERT_TRUE(x.ok());
    ASSERT_TRUE(y.ok());
    ASSERT_TRUE(z.ok());
    EXPECT_EQ(x->seed, y->seed);
    EXPECT_NE(x->seed, z->seed);
    EXPECT_EQ(x->population.num_clients, kClientsPerFleet);
    EXPECT_EQ(x->num_threads, kFleetThreads);
  }
  EXPECT_NE(MakeFleetOptions(7, 0)->seed, MakeFleetOptions(7, 1)->seed);
}

TEST(Inputs, ServeScriptIsDeterminedBySeed) {
  const ServeScript a = MakeServeScript(7);
  const ServeScript b = MakeServeScript(7);
  const ServeScript c = MakeServeScript(8);
  EXPECT_EQ(a.initial_weights, b.initial_weights);
  EXPECT_EQ(a.request_seed, b.request_seed);
  EXPECT_EQ(a.population_seed, b.population_seed);
  EXPECT_NE(a.request_seed, c.request_seed);
  EXPECT_NE(a.population_seed, c.population_seed);
  EXPECT_NE(a.request_seed, a.population_seed);
}

TEST(Inputs, DriftRotatesTheRankingEveryTenCycles) {
  std::vector<double> weights = {3, 2, 1};
  for (int cycle = 0; cycle < kServeDriftEvery - 1; ++cycle) {
    DriftAfterCycle(cycle, &weights);
  }
  EXPECT_EQ(weights, (std::vector<double>{3, 2, 1}));
  DriftAfterCycle(kServeDriftEvery - 1, &weights);
  EXPECT_EQ(weights, (std::vector<double>{2, 1, 3}));
}

}  // namespace
}  // namespace perfbench
