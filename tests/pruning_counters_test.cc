// Per-rule pruning counters: exact golden counts on the paper's example
// tree, the node-conservation invariant of the reduced-tree recount, and the
// acceptance contract that the deterministic "pruning.*" breakdown published
// through the metrics registry is identical across thread counts.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "alloc/optimal.h"
#include "alloc/topo_search.h"
#include "obs/obs.h"
#include "tree/builders.h"
#include "util/rng.h"

namespace bcast {
namespace {

TopoTreeSearch::Options ReducedOptions(int channels) {
  TopoTreeSearch::Options options;
  options.num_channels = channels;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  return options;
}

TEST(PruningCountersTest, PaperExampleSingleChannelGoldenCounts) {
  // One channel on the Fig. 1/2 example: the reduced topological tree is the
  // paper's Fig. 9 tree. Every node of it is a singleton subset, so no
  // subset-level rule (Lemmas 3-5) can fire; the whole reduction is
  // Property 2 dropping characterized candidates before they become nodes.
  IndexTree tree = MakePaperExampleTree();
  auto search = TopoTreeSearch::Create(tree, ReducedOptions(1));
  ASSERT_TRUE(search.ok());
  auto stats = search->ReducedTreeStats(10'000'000);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_EQ(stats->nodes_expanded, 60u);   // Fig. 9 reduced tree, root included
  EXPECT_EQ(stats->nodes_generated, 59u);  // every non-root node
  EXPECT_EQ(stats->pruned_by_rule.property2, 38u);
  EXPECT_EQ(stats->pruned_by_rule.property1, 0u);
  EXPECT_EQ(stats->pruned_by_rule.property3, 0u);
  EXPECT_EQ(stats->pruned_by_rule.lemma3, 0u);
  EXPECT_EQ(stats->pruned_by_rule.lemma4, 0u);
  EXPECT_EQ(stats->pruned_by_rule.lemma5, 0u);
  EXPECT_EQ(stats->pruned_by_rule.lemma6, 0u);
  EXPECT_EQ(stats->pruned_by_rule.corollary2, 0u);
  EXPECT_EQ(stats->nodes_pruned, 0u);  // property drops are candidate-level

  // Cross-check against the independent enumeration counter.
  auto nodes = search->CountTreeNodes(10'000'000);
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(*nodes, stats->nodes_expanded);
}

TEST(PruningCountersTest, PaperExampleTwoChannelGoldenCounts) {
  // Two channels: the reduced tree is the paper's Fig. 10 tree — 8 nodes and
  // 2 complete paths. Exactly one candidate falls to Property 3 (the k > 1
  // characterization); nothing reaches the subset-level lemmas.
  IndexTree tree = MakePaperExampleTree();
  auto search = TopoTreeSearch::Create(tree, ReducedOptions(2));
  ASSERT_TRUE(search.ok());
  auto stats = search->ReducedTreeStats(10'000'000);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_EQ(stats->nodes_expanded, 8u);
  EXPECT_EQ(stats->nodes_generated, 7u);
  EXPECT_EQ(stats->paths_completed, 2u);
  EXPECT_EQ(stats->pruned_by_rule.property3, 1u);
  EXPECT_EQ(stats->pruned_by_rule.property2, 0u);
  EXPECT_EQ(stats->pruned_by_rule.lemma3, 0u);
  EXPECT_EQ(stats->pruned_by_rule.lemma4, 0u);
  EXPECT_EQ(stats->pruned_by_rule.lemma5, 0u);
  EXPECT_EQ(stats->nodes_pruned, 0u);
}

TEST(PruningCountersTest, ReducedTreeNodeConservation) {
  // The recount enumerates with no bound and no incumbent, so node
  // conservation is exact: every generated subset is either eliminated by a
  // subset-level rule (counted in nodes_pruned) or expanded. Random trees
  // across all channel counts.
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9E3779B9u + 1);
    const int num_data = 3 + static_cast<int>(seed % 5);
    IndexTree tree = MakeRandomTree(&rng, num_data, 2 + static_cast<int>(seed % 3));
    for (int k = 1; k <= 3; ++k) {
      SCOPED_TRACE("k " + std::to_string(k));
      auto search = TopoTreeSearch::Create(tree, ReducedOptions(k));
      ASSERT_TRUE(search.ok());
      auto stats = search->ReducedTreeStats(10'000'000);
      if (!stats.ok()) continue;  // instance too large for the recount budget
      EXPECT_EQ(stats->nodes_expanded,
                1 + stats->nodes_generated - stats->nodes_pruned);
      EXPECT_EQ(stats->bound_cutoffs, 0u);  // no bound in the recount
      // Subset-level rules are a subset of the per-rule totals (Properties
      // 2/3 are candidate-level and excluded from nodes_pruned).
      EXPECT_LE(stats->pruned_by_rule.lemma3 + stats->pruned_by_rule.lemma4 +
                    stats->pruned_by_rule.lemma5,
                stats->pruned_by_rule.Total());
      EXPECT_EQ(stats->nodes_pruned,
                stats->pruned_by_rule.lemma3 + stats->pruned_by_rule.lemma4 +
                    stats->pruned_by_rule.lemma5);
    }
  }
}

// Collects the deterministic breakdown counters from a registry snapshot.
std::map<std::string, uint64_t> PruningCounters(
    const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, uint64_t> pruning;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("pruning.", 0) == 0) pruning[name] = value;
  }
  return pruning;
}

TEST(PruningCountersTest, BreakdownIsIdenticalAcrossThreadCounts) {
  // Acceptance criterion: the published pruning.* counters are a pure
  // function of (tree, options). A second run that changes num_threads and
  // drops the incumbent seed — which moves the live search.* counters —
  // must publish a byte-identical breakdown.
  for (uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9E3779B9u + 1);
    IndexTree tree = MakeRandomTree(&rng, 4 + static_cast<int>(seed % 4),
                                    2 + static_cast<int>(seed % 2));
    const int k = 2 + static_cast<int>(seed % 2);
    // Corollary 1 instances never search (and so publish no breakdown).
    if (k >= tree.max_level_width()) continue;

    auto breakdown = [&](const OptimalOptions& options) {
      obs::Registry registry;
      {
        obs::ScopedObservability scope(&registry, nullptr);
        auto result = FindOptimalAllocation(tree, k, options);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
      }
      return PruningCounters(registry.Snapshot());
    };
    const std::map<std::string, uint64_t> reference =
        breakdown(OptimalOptions{});
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(reference.count("pruning.breakdown_truncated"), 0u);
    OptimalOptions other;
    other.num_threads = 8;
    other.seed_incumbent = OptimalOptions::SeedIncumbent::kNone;
    EXPECT_EQ(breakdown(other), reference);
  }
}

TEST(PruningCountersTest, PaperExampleBreakdownThroughTheFacade) {
  // End to end through FindOptimalAllocation: the registry must carry the
  // same golden counts as the direct ReducedTreeStats call above.
  IndexTree tree = MakePaperExampleTree();
  obs::Registry registry;
  {
    obs::ScopedObservability scope(&registry, nullptr);
    auto result = FindOptimalAllocation(tree, 2, OptimalOptions{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr("pruning.reduced_tree_nodes", 0), 8u);
  EXPECT_EQ(snapshot.CounterOr("pruning.generated", 0), 7u);
  EXPECT_EQ(snapshot.CounterOr("pruning.property3", 0), 1u);
  EXPECT_EQ(snapshot.CounterOr("pruning.property2", 999), 0u);
  EXPECT_EQ(snapshot.CounterOr("pruning.lemma4", 999), 0u);
}

TEST(PruningCountersTest, LevelAllocationCountsCorollary1) {
  // Corollary 1 never builds a search tree, so it has no pruning breakdown;
  // its firing is visible as the planner.corollary1_level_allocations
  // counter instead.
  IndexTree tree = MakePaperExampleTree();  // widest level: 4 nodes
  obs::Registry registry;
  {
    obs::ScopedObservability scope(&registry, nullptr);
    auto result = FindOptimalAllocation(tree, 4, OptimalOptions{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(registry.Snapshot().CounterOr(
                "planner.corollary1_level_allocations", 0),
            1u);
}

}  // namespace
}  // namespace bcast
