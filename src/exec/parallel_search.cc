#include "exec/parallel_search.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "exec/state_store.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bcast {

namespace {

// ---------------------------------------------------------------------------
// Packed incumbent word: | 48-bit rounded-up cost | 16-bit epoch |
//
// Costs are non-negative doubles, whose IEEE-754 bit patterns compare like
// the values when viewed as unsigned integers. The low 16 mantissa bits are
// sacrificed to the epoch; the stored cost is rounded *up* to the next
// representable 48-bit-prefix value, so the word is always a valid upper
// bound on the true best cost (relative slack ~2^-36 — harmless to pruning,
// essential to never pruning an optimal tie).
// ---------------------------------------------------------------------------

constexpr uint64_t kEpochMask = 0xFFFFull;
constexpr uint64_t kCostMask = ~kEpochMask;

// bcast: hot
uint64_t PackCostCeiling(double cost) {
  BCAST_DCHECK_GE(cost, 0.0);
  uint64_t bits = std::bit_cast<uint64_t>(cost);
  if ((bits & kEpochMask) != 0) bits += kEpochMask + 1;  // round up
  return bits & kCostMask;
}

// bcast: hot
double UnpackCostCeiling(uint64_t word) {
  return std::bit_cast<double>(word & kCostMask);
}

bool PathLexLess(const BnbProblem& problem, const std::vector<uint64_t>& a,
                 const std::vector<uint64_t>& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return problem.SubsetLess(a[i], b[i]);
  }
  return a.size() < b.size();
}

// Paths (and hence inline prefixes) on every committed problem family are
// far shorter than this; reserving it once per search makes the incumbent
// record and the root prefix allocation-free for the rest of the run.
constexpr size_t kPathReserve = 64;

// Auto store sizing from the root SubtreeSizeHint (conventionally the number
// of still-unplaced elements, so the reachable state count is exponential in
// it): 2^(hint+4) cells keeps the table load factor low across the bench
// grid, clamped to [2^12, 2^21]. Unknown hints (the BnbProblem default is
// "huge") get 2^18 — big enough for ~10^5-state searches, small enough that
// the reserved arena stays modest.
size_t AutoStoreCapacity(uint64_t root_hint) {
  if (root_hint == std::numeric_limits<uint64_t>::max()) {
    return size_t{1} << 18;
  }
  if (root_hint >= 17) return size_t{1} << 21;
  const uint64_t shift = root_hint + 4 < 12 ? 12 : root_hint + 4;
  return size_t{1} << shift;
}

StateStoreOptions StoreOptions(const BnbProblem& problem,
                               const ParallelSearchOptions& options) {
  StateStoreOptions store_options;
  store_options.capacity =
      options.store_capacity > 0
          ? options.store_capacity
          : AutoStoreCapacity(problem.SubtreeSizeHint(problem.Root()));
  store_options.arena_bytes = options.store_arena_bytes;
  store_options.max_cas_retries = options.store_max_cas_retries;
  return store_options;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

class Engine {
 public:
  Engine(const BnbProblem& problem, const ParallelSearchOptions& options,
         int num_threads)
      : problem_(problem),
        options_(options),
        num_threads_(num_threads),
        clock_(options.clock != nullptr ? options.clock
                                        : obs::MonotonicClock()),
        frontier_lower_(std::bit_cast<uint64_t>(
            std::numeric_limits<double>::infinity())),
        // A finite initial_bound pre-tightens the shared word; +inf packs to
        // +inf (its low 16 bits are zero), i.e. the unseeded behavior.
        incumbent_(PackCostCeiling(options.initial_bound)),
        store_(problem, StoreOptions(problem, options)) {
    best_path_.reserve(kPathReserve);
  }

  Result<ParallelSearchResult> Run() {
    if (options_.deadline_ns > 0) {
      deadline_abs_ns_ = clock_->NowNanos() + options_.deadline_ns;
    }
    if (num_threads_ == 1) {
      // Inline mode: no pool, no tasks (group_ stays null so Visit never
      // spawns), the whole search runs on the calling thread. Besides
      // skipping pool spin-up, this keeps the calling thread's scratch
      // arenas warm across runs — the property the counting-allocator test
      // (tests/alloc_free_search_test.cc) measures.
      const BnbState root = problem_.Root();
      std::vector<uint64_t> prefix;
      prefix.reserve(kPathReserve);
      Visit(root, &prefix, 0);
    } else {
      ThreadPool pool(num_threads_);
      TaskGroup group(&pool, options_.cancel);
      group_ = &group;
      BnbState root = problem_.Root();
      group.Run([this, root] {
        std::vector<uint64_t> prefix;
        prefix.reserve(kPathReserve);
        Visit(root, &prefix, 0);
      });
      Status pool_status = group.Wait();
      group_ = nullptr;
      // A task exception means part of the tree silently went unexplored —
      // neither an exact nor a sound anytime result can be claimed.
      if (!pool_status.ok()) Abort(std::move(pool_status));
    }  // pool drained and joined: every stat below is quiescent

    if (aborted_.load(std::memory_order_acquire)) {
      MutexLock lock(&abort_mutex_);
      return abort_status_;
    }
    const bool stopped = stopped_.load(std::memory_order_acquire);
    const uint64_t stop_snapshot =
        stop_snapshot_.load(std::memory_order_relaxed);
    MutexLock lock(&best_mutex_);
    if (!has_best_) {
      if (stopped) {
        return ResourceExhaustedError(
            "search budget exhausted before any feasible allocation was "
            "completed");
      }
      return InternalError("no feasible allocation found (pruning dead end)");
    }
    ParallelSearchResult result;
    result.best_path = best_path_;
    result.best_v = best_v_;
    result.truncated = stopped;
    // lower <= optimum always: the optimum's path was either completed
    // (best_v == optimum), cut by the incumbent bound (which proves best_v
    // == optimum), or abandoned on stop — and then its admissible estimate
    // was folded into frontier_lower_.
    result.frontier_lower =
        stopped ? std::min(
                      std::bit_cast<double>(
                          frontier_lower_.load(std::memory_order_relaxed)),
                      best_v_)
                : best_v_;
    if (stopped && stop_snapshot != kNoSnapshot) {
      result.cancel_latency_expansions =
          expanded_.load(std::memory_order_relaxed) - stop_snapshot;
      obs::GetHistogram("planner.cancel_latency_expansions")
          .Record(result.cancel_latency_expansions);
    }
    result.stats.nodes_expanded = expanded_.load(std::memory_order_relaxed);
    result.stats.paths_completed = completed_.load(std::memory_order_relaxed);
    result.stats.bound_pruned = bound_pruned_.load(std::memory_order_relaxed);
    const StateStoreCounters counters = store_.Counters();
    result.stats.cache_hits = counters.hits;
    // Every survivor of the dominance check was recorded, so inserts =
    // misses; `dominated` counts the entries those inserts replaced.
    result.stats.cache_misses = counters.inserts;
    result.stats.cache_evictions = counters.dominated;
    result.stats.cache_dropped = counters.evictions;
    result.stats.cache_cas_retries = counters.cas_retries;
    result.stats.cache_entries = counters.entries;
    result.stats.incumbent_updates =
        incumbent_updates_.load(std::memory_order_relaxed);
    result.stats.threads_used = num_threads_;
    EmitStats(result.stats);
    return result;
  }

 private:
  // Run-varying engine telemetry (documented as such in docs/FORMATS.md —
  // steal timing makes these legitimately differ run to run, unlike the
  // deterministic "pruning.*" breakdown). The search.store.* family mirrors
  // StateStoreCounters for bcastctl stats / telemetry.
  static void EmitStats(const ParallelSearchStats& stats) {
    obs::Registry* registry = obs::GlobalMetrics();
    if (registry == nullptr) return;
    auto add = [&](const char* name, uint64_t value) {
      registry->GetCounter(name).Add(value);
    };
    add("search.parallel.nodes_expanded", stats.nodes_expanded);
    add("search.parallel.paths_completed", stats.paths_completed);
    add("search.parallel.bound_pruned", stats.bound_pruned);
    add("search.parallel.incumbent_updates", stats.incumbent_updates);
    add("search.store.hits", stats.cache_hits);
    add("search.store.inserts", stats.cache_misses);
    add("search.store.dominated", stats.cache_evictions);
    add("search.store.evictions", stats.cache_dropped);
    add("search.store.cas_retries", stats.cache_cas_retries);
    add("search.store.entries", stats.cache_entries);
    registry->GetGauge("search.parallel.threads_used")
        .Set(stats.threads_used);
  }

  // One expansion arena per worker thread and inline-recursion level, so
  // steady-state expansion never allocates (each level's vector grows to its
  // high-water mark once and is reused; a deque keeps references stable while
  // deeper levels append). Spawned tasks restart at level 0 on their own
  // worker's arena stack.
  static std::vector<uint64_t>* LevelScratch(int level) {
    thread_local std::deque<std::vector<uint64_t>> scratch;
    while (static_cast<int>(scratch.size()) <= level) scratch.emplace_back();
    return &scratch[static_cast<size_t>(level)];
  }

  // Expands one state. `prefix` holds the subsets placed after the root, the
  // last being state.last_set (empty for the root itself); it is mutated
  // in place during inline recursion and restored before returning. `level`
  // is the inline recursion depth (not the search depth), selecting this
  // frame's scratch arena.
  void Visit(const BnbState& state, std::vector<uint64_t>* prefix, int level) {
    if (aborted_.load(std::memory_order_relaxed)) return;
    // Soft-stop check BEFORE counting the expansion: a stopped search
    // abandons this subtree but folds its admissible estimate into the
    // global lower bound so the reported gap still brackets the optimum.
    if (Stopping(expanded_.load(std::memory_order_relaxed))) {
      FoldFrontier(problem_.Estimate(state));
      return;
    }
    const uint64_t n = expanded_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n > options_.max_expansions) {
      Abort(ResourceExhaustedError(
          "parallel search exceeded " +
          std::to_string(options_.max_expansions) + " expansions"));
      return;
    }
    if (problem_.IsGoal(state)) {
      completed_.fetch_add(1, std::memory_order_relaxed);
      TryImprove(state.v, *prefix);
      return;
    }
    // Re-check against the freshest incumbent: the bound may have tightened
    // since this state was enqueued.
    if (problem_.Estimate(state) > CeilingCost()) {
      bound_pruned_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (store_.CheckDominatedOrInsert(state, *prefix)) return;

    std::vector<uint64_t>& subsets = *LevelScratch(level);
    problem_.Expand(state, &subsets);

    // Sequential cutoff: subtrees the problem reports as small run inline
    // regardless of depth — a stealable task would cost more than the
    // subtree itself (result unchanged; the engine is schedule-invariant).
    const bool spawn_children =
        group_ != nullptr && state.depth < options_.spawn_depth &&
        problem_.SubtreeSizeHint(state) >= options_.min_parallel_subtree;
    if (spawn_children) {
      // Shallow: children become stealable tasks, `batch_factor` canonical-
      // order siblings per task. The task re-derives each child and checks
      // the incumbent bound at execution time — by then the bound is usually
      // tighter than it was here. The prefix copy is tiny (< spawn_depth).
      const size_t batch =
          options_.batch_factor > 0
              ? static_cast<size_t>(options_.batch_factor)
              : 1;
      for (size_t begin = 0; begin < subsets.size(); begin += batch) {
        if (aborted_.load(std::memory_order_relaxed)) return;
        if (stopped_.load(std::memory_order_relaxed)) {
          // Mid-loop stop: the un-spawned children are all reached through
          // `state`, so folding the parent's estimate once covers them.
          FoldFrontier(problem_.Estimate(state));
          return;
        }
        const size_t end = std::min(begin + batch, subsets.size());
        std::vector<uint64_t> slice(subsets.begin() + begin,
                                    subsets.begin() + end);
        group_->Run([this, state, slice = std::move(slice),
                     parent_prefix = *prefix]() mutable {
          VisitSiblings(state, slice, &parent_prefix);
        });
      }
      return;
    }

    for (size_t i = 0; i < subsets.size(); ++i) {
      const uint64_t subset = subsets[i];
      if (aborted_.load(std::memory_order_relaxed)) return;
      if (stopped_.load(std::memory_order_relaxed)) {
        // Mid-loop stop: the un-visited children are all reached through
        // `state`, so folding the parent's estimate once covers them.
        FoldFrontier(problem_.Estimate(state));
        return;
      }
      BnbState child = problem_.Child(state, subset);
      if (problem_.Estimate(child) > CeilingCost()) {
        bound_pruned_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      prefix->push_back(subset);
      Visit(child, prefix, level + 1);
      prefix->pop_back();
      // The recursive frame borrowed deeper arenas; this frame's reference
      // is still valid (deque never relocates existing elements), and the
      // subset list itself was never touched by deeper levels.
    }
  }

  // One spawned task: a slice of `state`'s children in canonical order.
  // `prefix` is this task's private copy of the path to `state`.
  void VisitSiblings(const BnbState& state, const std::vector<uint64_t>& slice,
                     std::vector<uint64_t>* prefix) {
    for (const uint64_t subset : slice) {
      if (aborted_.load(std::memory_order_relaxed)) return;
      if (stopped_.load(std::memory_order_relaxed)) {
        FoldFrontier(problem_.Estimate(state));
        return;
      }
      BnbState child = problem_.Child(state, subset);
      if (problem_.Estimate(child) > CeilingCost()) {
        bound_pruned_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      prefix->push_back(subset);
      Visit(child, prefix, 0);
      prefix->pop_back();
    }
  }

  double CeilingCost() const {
    return UnpackCostCeiling(incumbent_.load(std::memory_order_relaxed));
  }

  // True once any soft stop condition holds; latches stopped_ on the first
  // observation. `n` is the current expansion count (pre-increment, so the
  // deadline is also polled on the very first visit — a pre-expired deadline
  // stops the search before it expands anything).
  bool Stopping(uint64_t n) {
    if (stopped_.load(std::memory_order_relaxed)) return true;
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      LatchStop();
      return true;
    }
    if (options_.soft_budget_expansions > 0 &&
        n >= options_.soft_budget_expansions) {
      LatchStop();
      return true;
    }
    if (deadline_abs_ns_ != 0 && (n & 1023) == 0 &&
        clock_->NowNanos() >= deadline_abs_ns_) {
      LatchStop();
      return true;
    }
    return false;
  }

  void LatchStop() {
    bool expected = false;
    if (stopped_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
      // First observer snapshots the expansion count; the final count minus
      // this snapshot is the measured stop latency (expansions by workers
      // already past their own entry check).
      uint64_t none = kNoSnapshot;
      stop_snapshot_.compare_exchange_strong(
          none, expanded_.load(std::memory_order_relaxed),
          std::memory_order_acq_rel);
    }
  }

  // Atomic min of an abandoned state's admissible estimate. Non-negative
  // doubles compare like their bit patterns viewed as unsigned integers.
  void FoldFrontier(double estimate) {
    BCAST_DCHECK_GE(estimate, 0.0);
    const uint64_t bits = std::bit_cast<uint64_t>(estimate);
    uint64_t current = frontier_lower_.load(std::memory_order_relaxed);
    while (bits < current &&
           !frontier_lower_.compare_exchange_weak(current, bits,
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_relaxed)) {
    }
  }

  void TryImprove(double v, const std::vector<uint64_t>& path) {
    {
      MutexLock lock(&best_mutex_);
      if (has_best_ &&
          (v > best_v_ ||
           (v == best_v_ && !PathLexLess(problem_, path, best_path_)))) {
        return;
      }
      best_v_ = v;
      // Capacity was reserved up front (kPathReserve), so steady-state
      // improvements assign without reallocating.
      best_path_ = path;
      has_best_ = true;
    }
    incumbent_updates_.fetch_add(1, std::memory_order_relaxed);
    // Lower the shared bound word. Only ever decreases (cost part), so a CAS
    // loop against concurrent lowerers suffices; the epoch stamps each
    // successful publication.
    const uint64_t desired_cost = PackCostCeiling(v);
    uint64_t current = incumbent_.load(std::memory_order_relaxed);
    while ((current & kCostMask) > desired_cost) {
      const uint64_t next = desired_cost | ((current + 1) & kEpochMask);
      if (incumbent_.compare_exchange_weak(current, next,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        break;
      }
    }
  }

  void Abort(Status status) {
    bool expected = false;
    if (aborted_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
      MutexLock lock(&abort_mutex_);
      abort_status_ = std::move(status);
    }
  }

  static constexpr uint64_t kNoSnapshot =
      std::numeric_limits<uint64_t>::max();

  const BnbProblem& problem_;
  const ParallelSearchOptions& options_;
  const int num_threads_;
  obs::Clock* const clock_;
  uint64_t deadline_abs_ns_ = 0;  // fixed in Run() before workers start

  TaskGroup* group_ = nullptr;

  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> stop_snapshot_{kNoSnapshot};
  std::atomic<uint64_t> frontier_lower_;  // bit pattern; seeded to +inf

  std::atomic<uint64_t> incumbent_;  // seeded in the constructor
  Mutex best_mutex_;
  bool has_best_ BCAST_GUARDED_BY(best_mutex_) = false;
  double best_v_ BCAST_GUARDED_BY(best_mutex_) = 0.0;
  std::vector<uint64_t> best_path_ BCAST_GUARDED_BY(best_mutex_);

  ConcurrentStateStore store_;

  std::atomic<bool> aborted_{false};
  Mutex abort_mutex_;
  Status abort_status_ BCAST_GUARDED_BY(abort_mutex_);

  std::atomic<uint64_t> expanded_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> bound_pruned_{0};
  std::atomic<uint64_t> incumbent_updates_{0};
};

}  // namespace

Result<ParallelSearchResult> RunParallelSearch(
    const BnbProblem& problem, const ParallelSearchOptions& options) {
  if (options.num_threads < 0) {
    return InvalidArgumentError("num_threads must be >= 0 (0 = hardware)");
  }
  if (options.batch_factor < 1) {
    return InvalidArgumentError("batch_factor must be >= 1");
  }
  if (options.store_max_cas_retries < 1) {
    return InvalidArgumentError("store_max_cas_retries must be >= 1");
  }
  if (!(options.initial_bound >= 0.0)) {  // also rejects NaN
    return InvalidArgumentError("initial_bound must be >= 0 (+inf = unseeded)");
  }
  int threads = options.num_threads == 0 ? ThreadPool::HardwareConcurrency()
                                         : options.num_threads;
  // Whole-search sequential cutoff: when even the root subtree is below the
  // spawn threshold no task would ever be spawned, so skip the pool entirely.
  if (threads > 1 &&
      problem.SubtreeSizeHint(problem.Root()) < options.min_parallel_subtree) {
    threads = 1;
  }
  Engine engine(problem, options, threads);
  obs::ScopedSpan span("parallel_search.run");
  obs::ScopedTimer timer(obs::GetHistogram("search.parallel.run_ns"));
  return engine.Run();
}

}  // namespace bcast
