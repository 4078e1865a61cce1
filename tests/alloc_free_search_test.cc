// Proves the "zero steady-state heap allocations per expansion" contract of
// the bitmask DFS core (src/alloc/topo_search.cc).
//
// A literal zero-per-call assertion would be brittle: every optimizer call
// legitimately performs a small, *expansion-count-independent* amount of
// setup work (path reserves, materializing the winning slot sequence, and —
// in debug builds — the BCAST_DCHECK verifier pass). So the test pins the
// real invariant instead: two searches over the same tree whose expansion
// counts differ by an order of magnitude (the loose paper bound vs the tight
// packed bound) must allocate the *same* number of times per call. Any
// per-expansion allocation in the hot loop would scale with the expansion
// count and break the equality.
//
// The counter is a global operator new/delete override local to this test
// binary — which is why this suite lives alone in its own executable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "alloc/topo_parallel.h"
#include "alloc/topo_search.h"
#include "exec/parallel_search.h"
#include "tree/builders.h"
#include "tree/index_tree.h"
#include "util/check.h"
#include "util/rng.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_allocated_bytes{0};

uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

uint64_t AllocatedBytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

void CountAllocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  CountAllocation(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  CountAllocation(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

namespace {
void* AlignedAlloc(std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}
}  // namespace

void* operator new(std::size_t size, std::align_val_t align) {
  CountAllocation(size);
  if (void* p = AlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  CountAllocation(size);
  if (void* p = AlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}

// Every operator new above allocates with std::malloc / std::aligned_alloc,
// so releasing with std::free is matched by construction; GCC can't see
// through the replacement and reports a false mismatch at inlined call sites.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace bcast {
namespace {

// A tree big enough that the paper bound expands an order of magnitude more
// nodes than the packed bound (so a per-expansion allocation can't hide).
IndexTree TestTree() {
  Rng rng(0xA110C);
  return MakeRandomTree(&rng, /*num_data=*/13, /*max_fanout=*/3);
}

TopoTreeSearch MakeSearch(const IndexTree& tree,
                          TopoTreeSearch::BoundKind bound) {
  TopoTreeSearch::Options options;
  options.num_channels = 2;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  options.bound = bound;
  auto search = TopoTreeSearch::Create(tree, options);
  BCAST_CHECK(search.ok());
  return std::move(search).value();
}

TEST(AllocFreeSearchTest, DfsAllocationsAreIndependentOfExpansionCount) {
  IndexTree tree = TestTree();
  TopoTreeSearch loose = MakeSearch(tree, TopoTreeSearch::BoundKind::kPaperNextSlot);
  TopoTreeSearch tight = MakeSearch(tree, TopoTreeSearch::BoundKind::kPacked);

  // Warm-up: the per-depth arenas grow to their high-water mark once.
  auto warm_loose = loose.FindOptimalDfs();
  auto warm_tight = tight.FindOptimalDfs();
  ASSERT_TRUE(warm_loose.ok() && warm_tight.ok());
  // Same answer; the loose bound cuts far less (this also locks in the
  // premise that the expansion counts genuinely differ).
  ASSERT_EQ(warm_loose->slots, warm_tight->slots);
  ASSERT_GE(warm_loose->stats.nodes_expanded,
            2 * warm_tight->stats.nodes_expanded);

  const uint64_t before_loose = AllocationCount();
  auto run_loose = loose.FindOptimalDfs();
  const uint64_t allocs_loose = AllocationCount() - before_loose;

  const uint64_t before_tight = AllocationCount();
  auto run_tight = tight.FindOptimalDfs();
  const uint64_t allocs_tight = AllocationCount() - before_tight;

  ASSERT_TRUE(run_loose.ok() && run_tight.ok());
  EXPECT_GE(run_loose->stats.nodes_expanded,
            2 * run_tight->stats.nodes_expanded);
  // The zero-allocations-per-expansion contract: identical per-call counts
  // despite wildly different expansion counts.
  EXPECT_EQ(allocs_loose, allocs_tight)
      << "loose-bound expansions: " << run_loose->stats.nodes_expanded
      << ", tight-bound expansions: " << run_tight->stats.nodes_expanded;
  // And the fixed setup cost itself stays small: path reserves plus the
  // winning slot sequence (plus the debug-build verifier pass).
  EXPECT_LE(allocs_tight, 256u);
}

TEST(AllocFreeSearchTest, ParallelEngineInsertPathIsAllocationFree) {
  // Same protocol as the DFS test, applied to the parallel engine's
  // steady-state path: expansion + concurrent-state-store insert. The engine
  // runs in inline mode (num_threads = 1 skips the pool entirely and keeps
  // this thread's scratch arenas and store cell table warm across runs) with
  // a pinned store geometry, so per-call setup — arena slab, path reserves,
  // metrics emission — is a constant, and any allocation in the
  // Visit/CheckDominatedOrInsert loop would scale with the 2x+ expansion gap
  // and break the equality below.
  IndexTree tree = TestTree();
  TopoTreeSearch loose =
      MakeSearch(tree, TopoTreeSearch::BoundKind::kPaperNextSlot);
  TopoTreeSearch tight = MakeSearch(tree, TopoTreeSearch::BoundKind::kPacked);
  TopoBnbProblem loose_problem(loose);
  TopoBnbProblem tight_problem(tight);

  ParallelSearchOptions options;
  options.num_threads = 1;
  options.spawn_depth = 0;
  options.store_capacity = 1 << 16;      // pinned: identical construction
  options.store_arena_bytes = 8u << 20;  // cost for both measured runs

  // Warm-up: scratch arenas grow to their high-water mark, lazy obs state
  // (histograms, counters) materializes.
  auto warm_loose = RunParallelSearch(loose_problem, options);
  auto warm_tight = RunParallelSearch(tight_problem, options);
  ASSERT_TRUE(warm_loose.ok() && warm_tight.ok());
  ASSERT_EQ(warm_loose->best_path, warm_tight->best_path);
  ASSERT_GE(warm_loose->stats.nodes_expanded,
            2 * warm_tight->stats.nodes_expanded);
  // The store genuinely worked on this instance (inserts and hits both
  // non-zero), so the equality below covers the insert path, not a no-op.
  ASSERT_GT(warm_loose->stats.cache_misses, 0u);
  ASSERT_GT(warm_loose->stats.cache_hits, 0u);
  ASSERT_EQ(warm_loose->stats.cache_dropped, 0u);

  const uint64_t before_loose = AllocationCount();
  auto run_loose = RunParallelSearch(loose_problem, options);
  const uint64_t allocs_loose = AllocationCount() - before_loose;

  const uint64_t before_tight = AllocationCount();
  auto run_tight = RunParallelSearch(tight_problem, options);
  const uint64_t allocs_tight = AllocationCount() - before_tight;

  ASSERT_TRUE(run_loose.ok() && run_tight.ok());
  EXPECT_GE(run_loose->stats.nodes_expanded,
            2 * run_tight->stats.nodes_expanded);
  EXPECT_EQ(allocs_loose, allocs_tight)
      << "loose-bound expansions: " << run_loose->stats.nodes_expanded
      << " (store inserts " << run_loose->stats.cache_misses
      << "), tight-bound expansions: " << run_tight->stats.nodes_expanded
      << " (store inserts " << run_tight->stats.cache_misses << ")";
  // The fixed per-call cost stays small: arena slab + path reserves + the
  // metrics emission, not anything per expansion.
  EXPECT_LE(allocs_tight, 256u);

  // The cell table is kept on this thread between searches, so once it has
  // grown to 2^21 cells (16 MiB) a call allocates the same whatever capacity
  // it asks for, and no more than the arena slab plus small change.
  constexpr uint64_t kSlack = 1u << 20;
  options.store_capacity = size_t{1} << 21;
  ASSERT_TRUE(RunParallelSearch(tight_problem, options).ok());  // grows it
  uint64_t before_count = AllocationCount();
  uint64_t before_bytes = AllocatedBytes();
  auto run_big = RunParallelSearch(tight_problem, options);
  const uint64_t allocs_big = AllocationCount() - before_count;
  const uint64_t bytes_big = AllocatedBytes() - before_bytes;

  options.store_capacity = size_t{1} << 12;
  before_count = AllocationCount();
  before_bytes = AllocatedBytes();
  auto run_small = RunParallelSearch(tight_problem, options);
  const uint64_t allocs_small = AllocationCount() - before_count;
  const uint64_t bytes_small = AllocatedBytes() - before_bytes;

  ASSERT_TRUE(run_big.ok() && run_small.ok());
  EXPECT_EQ(run_big->best_path, run_small->best_path);
  EXPECT_EQ(allocs_big, allocs_small);
  EXPECT_LT(bytes_big, options.store_arena_bytes + kSlack);
  EXPECT_LT(bytes_small, options.store_arena_bytes + kSlack);
}

TEST(AllocFreeSearchTest, CountingModesAllocationsAreIndependentOfTreeSize) {
  // Smaller than the optimizer instance: the *unpruned* topological tree is
  // walked in full here, and it explodes combinatorially with data count.
  Rng rng(0xA110C);
  IndexTree tree = MakeRandomTree(&rng, /*num_data=*/7, /*max_fanout=*/3);
  // No pruning on `big`: the raw tree is much larger, so the two searches
  // do different amounts of counting work over the same tree.
  TopoTreeSearch small = MakeSearch(tree, TopoTreeSearch::BoundKind::kPacked);
  TopoTreeSearch::Options raw_options;
  raw_options.num_channels = 2;
  auto big = TopoTreeSearch::Create(tree, raw_options);
  ASSERT_TRUE(big.ok());

  // Warm-up.
  ASSERT_TRUE(small.CountPaths(100'000'000).ok());
  ASSERT_TRUE(big->CountPaths(100'000'000).ok());
  ASSERT_TRUE(small.ReducedTreeStats(100'000'000).ok());
  ASSERT_TRUE(big->ReducedTreeStats(100'000'000).ok());

  const uint64_t before_small = AllocationCount();
  auto paths_small = small.CountPaths(100'000'000);
  const uint64_t allocs_small = AllocationCount() - before_small;

  const uint64_t before_big = AllocationCount();
  auto paths_big = big->CountPaths(100'000'000);
  const uint64_t allocs_big = AllocationCount() - before_big;

  ASSERT_TRUE(paths_small.ok() && paths_big.ok());
  ASSERT_GT(*paths_big, 2 * *paths_small);
  EXPECT_EQ(allocs_small, allocs_big)
      << "paths: " << *paths_small << " vs " << *paths_big;

  const uint64_t before_stats = AllocationCount();
  auto stats = big->ReducedTreeStats(100'000'000);
  const uint64_t allocs_stats = AllocationCount() - before_stats;
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(allocs_stats, 64u);
}

}  // namespace
}  // namespace bcast
