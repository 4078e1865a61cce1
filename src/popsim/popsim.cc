#include "popsim/popsim.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/stream.h"

namespace bcast {

namespace {

// Auto-sharding: ~4k clients per shard (at most kMaxAutoShards shards)
// leaves plenty of shards to balance across the workers. Deliberately a
// function of the population alone — never of the thread count — so shard
// boundaries (and thus nothing at all) change between runs on different
// machines.
constexpr uint64_t kClientsPerShard = 4096;

// A shard runs its clients in blocks of this many, so that Rng::PrepareDraws
// seeds the block's generators side by side (util/rng.h).
constexpr uint64_t kSeedBlock = 8;

// Fault draws a faulty client's generator is seeded for before its access:
// about the mean on popsim_fleet's medium (13.4). Later draws seed on demand.
constexpr uint64_t kFaultDrawsAhead = 16;

uint64_t BitsOf(double v) { return std::bit_cast<uint64_t>(v); }

}  // namespace

// What a shard accumulates privately and the aggregation pass reads in shard
// order — integer tallies, plus sums over the shard's own clients in id
// order, so nothing can depend on how shards interleave across threads.
// `recovery` receives AccessOnce's fault/recovery counters. The rest feeds
// the report, the metrics registry and the per-shard telemetry ticks.
struct PopulationSimulator::ShardStats {
  RecoveryTally recovery;
  uint64_t rng_query_draws = 0;
  uint64_t rng_fault_draws = 0;
  uint64_t slots_processed = 0;
  int64_t last_slot = 0;
  uint64_t succeeded = 0;
  double data_wait_sum = 0.0;
  // Successful clients' data waits and tuning times, rounded to whole slots.
  obs::HistogramBatch data_wait_slots;
  obs::HistogramBatch tuning_slots;
};

Result<PopulationSimulator> PopulationSimulator::Create(
    const IndexTree& tree, const BroadcastSchedule& schedule) {
  auto sim = ClientSimulator::Create(tree, schedule);
  if (!sim.ok()) return sim.status();
  return PopulationSimulator(std::move(*sim));
}

Result<PopulationSimulator> PopulationSimulator::Create(
    const IndexTree& tree, const ReplicatedProgram& program) {
  auto sim = ClientSimulator::Create(tree, program);
  if (!sim.ok()) return sim.status();
  return PopulationSimulator(std::move(*sim));
}

void PopulationSimulator::RunShard(uint64_t begin, uint64_t end,
                                   const PopSimOptions& options,
                                   const PopulationSampler& sampler,
                                   const Rng& base, bool record_histograms,
                                   ClientOutcome* fleet,
                                   ShardStats* stats) const {
  // The workload draws DrawClient makes: target, arrival, maybe a doze.
  const uint64_t query_draws = options.population.doze_fraction > 0.0 ? 3 : 2;
  // Every slot is assigned a client's keyed substream (or its kFault fork)
  // before anything draws from it.
  // bcast-lint: allow(rng-substreams)
  Rng client_rngs[kSeedBlock];
  // bcast-lint: allow(rng-substreams)
  Rng fault_rngs[kSeedBlock];
  PopulationSampler::ClientDraw draws[kSeedBlock];
  // The medium each client listens through; null when it cannot fault.
  const FaultModel* media[kSeedBlock];
  int64_t first_slot = std::numeric_limits<int64_t>::max();
  int64_t last_observed = std::numeric_limits<int64_t>::min();
  for (uint64_t block = begin; block < end; block += kSeedBlock) {
    const size_t width = static_cast<size_t>(std::min(kSeedBlock, end - block));
    for (size_t i = 0; i < width; ++i) {
      client_rngs[i] = base.Substream(RngStream::kClient, block + i);
    }
    Rng::PrepareDraws({client_rngs, width}, query_draws);
    // Fault draws come from the client's own kFault substream; a client
    // whose model is inactive makes no fault draws.
    size_t faulty = 0;
    for (size_t i = 0; i < width; ++i) {
      draws[i] = sampler.DrawClient(block + i, &client_rngs[i],
                                    sim_.cycle_length());
      stats->rng_query_draws += client_rngs[i].draw_count();
      const FaultModel& faults =
          draws[i].degraded ? options.degraded_faults : options.faults;
      media[i] = faults.active() ? &faults : nullptr;
      if (media[i] != nullptr) {
        fault_rngs[faulty++] = client_rngs[i].Substream(RngStream::kFault);
      }
    }
    Rng::PrepareDraws({fault_rngs, faulty}, kFaultDrawsAhead);
    faulty = 0;
    for (size_t i = 0; i < width; ++i) {
      const PopulationSampler::ClientDraw& draw = draws[i];
      ClientOutcome& out = fleet[block + i];
      if (media[i] != nullptr) {
        Rng& fault_rng = fault_rngs[faulty++];
        FaultProcess medium(*media[i], &fault_rng);
        out = sim_.AccessOnce(draw.target, draw.arrival, &medium,
                              options.recovery, &stats->recovery);
        stats->rng_fault_draws += fault_rng.draw_count();
      } else {
        out = sim_.AccessOnce(draw.target, draw.arrival, nullptr,
                              options.recovery, &stats->recovery);
      }
      if (out.success) {
        ++stats->succeeded;
        stats->data_wait_sum += out.data_wait;
        if (record_histograms) {
          stats->data_wait_slots.Record(static_cast<uint64_t>(out.data_wait));
          stats->tuning_slots.Record(out.tuning);
        }
      }
      first_slot = std::min(first_slot, static_cast<int64_t>(draw.arrival));
      last_observed = std::max(last_observed, out.last_slot);
      // A success finishes after its last read; a failure ends at it.
      stats->last_slot =
          std::max(stats->last_slot, out.last_slot + (out.success ? 1 : 0));
    }
  }
  // Shards are never empty (Run caps the shard count at the client count).
  stats->slots_processed =
      static_cast<uint64_t>(last_observed - first_slot + 1);
}

Result<PopReport> PopulationSimulator::Run(
    const PopSimOptions& options, std::vector<ClientOutcome>* per_client) const {
  obs::ScopedSpan span("popsim.run");
  obs::ScopedTimer timer(obs::GetHistogram("popsim.run_ns"));
  // Flush-on-degrade: a failed worker task or invalid spec below still emits
  // the fin record ("error") and flushes the sink via this guard.
  obs::TelemetryFinishGuard telemetry_guard(options.telemetry);

  auto sampler = PopulationSampler::Create(sim_.tree(), options.population);
  if (!sampler.ok()) return sampler.status();
  if (options.num_threads < 0 || options.num_threads > kMaxAutoShards) {
    return InvalidArgumentError("num_threads must be in [0, " +
                                std::to_string(kMaxAutoShards) + "]");
  }
  if (options.num_shards < 0) {
    return InvalidArgumentError("num_shards must be >= 0");
  }

  const uint64_t n = options.population.num_clients;
  const int threads = options.num_threads == 0
                          ? std::min(HardwareConcurrency(), kMaxAutoShards)
                          : options.num_threads;
  uint64_t shards =
      options.num_shards > 0
          ? static_cast<uint64_t>(options.num_shards)
          : std::clamp<uint64_t>((n + kClientsPerShard - 1) / kClientsPerShard,
                                 1, kMaxAutoShards);
  shards = std::min(shards, n);

  std::vector<ClientOutcome> fleet(n);
  std::vector<ShardStats> stats(shards);
  // Null handles without a registry; the shards then record nothing.
  const obs::Histogram data_wait_hist =
      obs::GetHistogram("popsim.data_wait_slots");
  const obs::Histogram tuning_hist = obs::GetHistogram("popsim.tuning_slots");
  const bool record_histograms = static_cast<bool>(data_wait_hist);
  // Root of the whole run's substream tree: every client forks off it via
  // Substream(RngStream::kClient, id).
  // bcast-lint: allow(rng-substreams)
  const Rng base(options.seed);

  // Contiguous, population-determined shard ranges. Each shard is fully
  // independent, so the thread count changes only which worker runs it —
  // same work, same per-client streams, bitwise-identical outcomes.
  const uint64_t per_shard = n / shards;
  const uint64_t remainder = n % shards;
  auto shard_range = [&](uint64_t s) {
    const uint64_t begin = s * per_shard + std::min(s, remainder);
    const uint64_t size = per_shard + (s < remainder ? 1 : 0);
    return std::pair<uint64_t, uint64_t>(begin, begin + size);
  };
  BCAST_RETURN_IF_ERROR(ParallelFor(threads, shards, [&](size_t s) {
    auto [begin, end] = shard_range(s);
    RunShard(begin, end, options, *sampler, base, record_histograms,
             fleet.data(), &stats[s]);
  }));

  // Deterministic aggregation: integer tallies sum in shard order; every
  // floating-point reduction (means, percentiles, digest) runs single-
  // threaded over the id-ordered outcomes, so the report never depends
  // on task interleaving.
  PopReport report;
  report.num_clients = n;
  report.shards_used = static_cast<int>(shards);
  report.threads_used =
      static_cast<int>(std::min(static_cast<uint64_t>(threads), shards));
  for (const ShardStats& s : stats) {
    report.buckets_lost += s.recovery.buckets_lost;
    report.buckets_corrupted += s.recovery.buckets_corrupted;
    report.retries += s.recovery.retries;
    report.cycle_restarts += s.recovery.cycle_restarts;
    report.sequential_scans += s.recovery.sequential_scans;
    report.slots_processed += s.slots_processed;
    report.last_slot = std::max(report.last_slot, s.last_slot);
    report.rng_query_draws += s.rng_query_draws;
    report.rng_fault_draws += s.rng_fault_draws;
  }

  double probe_sum = 0.0, data_sum = 0.0, tuning_sum = 0.0, switch_sum = 0.0;
  std::vector<double> access_times, data_waits, tunings;
  access_times.reserve(n);
  data_waits.reserve(n);
  tunings.reserve(n);
  uint64_t digest = 0x506f70536972ull;  // "PopSim" tag seeds the chain
  for (const ClientOutcome& c : fleet) {
    digest = MixSeed(digest ^ (c.success ? 1 : 0));
    digest = MixSeed(digest ^ BitsOf(c.probe_wait));
    digest = MixSeed(digest ^ BitsOf(c.data_wait));
    digest = MixSeed(digest ^
                     ((static_cast<uint64_t>(c.tuning) << 32) | c.switches));
    if (!c.success) continue;
    ++report.num_succeeded;
    probe_sum += c.probe_wait;
    data_sum += c.data_wait;
    tuning_sum += static_cast<double>(c.tuning);
    switch_sum += static_cast<double>(c.switches);
    access_times.push_back(c.probe_wait + c.data_wait);
    data_waits.push_back(c.data_wait);
    tunings.push_back(static_cast<double>(c.tuning));
  }
  report.digest = digest;
  report.success_rate =
      n > 0 ? static_cast<double>(report.num_succeeded) /
                  static_cast<double>(n)
            : 0.0;
  if (report.num_succeeded > 0) {
    const double ns = static_cast<double>(report.num_succeeded);
    report.mean_probe_wait = probe_sum / ns;
    report.mean_data_wait = data_sum / ns;
    report.mean_access_time = (probe_sum + data_sum) / ns;
    report.mean_tuning_time = tuning_sum / ns;
    report.mean_switches = switch_sum / ns;
    report.listen_fraction =
        report.mean_access_time > 0.0
            ? report.mean_tuning_time / report.mean_access_time
            : 0.0;

    // Nearest-rank p50/p95/p99 by selection rather than a full sort. Each
    // nth_element leaves every larger rank in the tail past its pivot, so
    // the next rank is selected within that tail alone.
    auto percentiles = [](std::vector<double>& values, double* p50,
                          double* p95, double* p99) {
      const std::pair<double, double*> ranks[] = {
          {0.50, p50}, {0.95, p95}, {0.99, p99}};
      size_t from = 0;
      for (auto [quantile, out] : ranks) {
        size_t rank = static_cast<size_t>(
            std::ceil(quantile * static_cast<double>(values.size())));
        if (rank > 0) --rank;
        if (rank >= values.size()) rank = values.size() - 1;
        if (rank >= from) {
          std::nth_element(values.begin() + from, values.begin() + rank,
                           values.end());
          from = rank + 1;
        }
        *out = values[rank];
      }
    };
    percentiles(access_times, &report.p50_access_time,
                &report.p95_access_time, &report.p99_access_time);
    percentiles(data_waits, &report.p50_data_wait, &report.p95_data_wait,
                &report.p99_data_wait);
    percentiles(tunings, &report.p50_tuning_time, &report.p95_tuning_time,
                &report.p99_tuning_time);
  }

  if (obs::MetricsEnabled()) {
    obs::GetCounter("popsim.clients").Add(report.num_clients);
    obs::GetCounter("popsim.succeeded").Add(report.num_succeeded);
    obs::GetCounter("popsim.retries").Add(report.retries);
    obs::GetCounter("popsim.cycle_restarts").Add(report.cycle_restarts);
    obs::GetCounter("popsim.sequential_scans").Add(report.sequential_scans);
    obs::GetCounter("popsim.buckets_lost").Add(report.buckets_lost);
    obs::GetCounter("popsim.buckets_corrupted").Add(report.buckets_corrupted);
    obs::GetCounter("popsim.slots_processed").Add(report.slots_processed);
    obs::GetCounter("rng.draws.query").Add(report.rng_query_draws);
    obs::GetCounter("rng.draws.fault").Add(report.rng_fault_draws);
  }

  // Per-client wait/tuning distributions (successful clients, rounded to
  // whole slots) — the population-scale histograms behind the p50/p95/p99
  // columns of `bcastctl popsim`. Each shard counted its own clients into
  // local batches; they merge here in shard order. With telemetry on, each
  // shard's merge is followed by that shard's tick, so the tick brackets
  // exactly that shard's recordings and its windowed histogram quantiles
  // (popsim.data_wait_slots.p50/...) cover exactly that shard's clients.
  //
  // Per-shard-merge telemetry: one tick per shard, in shard-id order, on
  // this (single) aggregation thread — the workers have already joined, so
  // emission can never race a shard and never perturbs a per-client
  // outcome. Ticks are keyed by the shard ordinal, never wall clock, and
  // every value comes from the shard's own id-ordered tallies, so the
  // stream itself is byte-identical across thread counts too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (uint64_t s = 0; s < shards; ++s) {
    const ShardStats& shard = stats[s];
    data_wait_hist.Merge(shard.data_wait_slots);
    tuning_hist.Merge(shard.tuning_slots);
    if (options.telemetry == nullptr) continue;
    obs::TelemetryPipeline& telemetry = *options.telemetry;
    auto [begin, end] = shard_range(s);
    const uint64_t clients = end - begin;
    telemetry.Observe("popsim.shard.clients", static_cast<double>(clients));
    telemetry.Observe("popsim.shard.success_rate",
                      clients > 0 ? static_cast<double>(shard.succeeded) /
                                        static_cast<double>(clients)
                                  : nan);
    telemetry.Observe("popsim.shard.mean_data_wait",
                      shard.succeeded > 0
                          ? shard.data_wait_sum /
                                static_cast<double>(shard.succeeded)
                          : nan);
    telemetry.Observe("popsim.shard.retries",
                      static_cast<double>(shard.recovery.retries));
    telemetry.Observe("popsim.shard.slots_processed",
                      static_cast<double>(shard.slots_processed));
    telemetry.Observe("popsim.shard.rng_fault_draws",
                      static_cast<double>(shard.rng_fault_draws));
    telemetry.Tick(s);
  }
  if (per_client != nullptr) *per_client = std::move(fleet);
  telemetry_guard.set_outcome("ok");
  return report;
}

}  // namespace bcast
