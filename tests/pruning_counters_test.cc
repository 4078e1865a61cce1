// Per-rule pruning counters: exact golden counts on the paper's example
// tree, the node-conservation invariant of the reduced-tree census, the
// census (PruningCensus) as a pure function of (tree, k, use_pruning), and
// the contract that installing a registry never changes the work a plan does.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "alloc/optimal.h"
#include "alloc/topo_search.h"
#include "obs/obs.h"
#include "tree/alphabetic.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "workload/weights.h"

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

// Publishes `census` into a fresh registry and returns its pruning.* view.
std::map<std::string, uint64_t> PublishedCensus(const SearchStats& census) {
  obs::Registry registry;
  {
    obs::ScopedObservability scope(&registry, nullptr);
    EmitPruningBreakdown(census);
  }
  return PruningCounters(registry.Snapshot());
}

TEST(PruningCountersTest, BreakdownIsIdenticalAcrossThreadCounts) {
  // The published census is a pure function of (tree, k, use_pruning):
  // options that move the live search.* counters — num_threads, the
  // incumbent seed — must leave it byte-identical.
  for (uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9E3779B9u + 1);
    IndexTree tree = MakeRandomTree(&rng, 4 + static_cast<int>(seed % 4),
                                    2 + static_cast<int>(seed % 2));
    const int k = 2 + static_cast<int>(seed % 2);

    auto census = PruningCensus(tree, k, OptimalOptions{});
    ASSERT_TRUE(census.ok()) << census.status().ToString();
    const std::map<std::string, uint64_t> reference = PublishedCensus(*census);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(reference.count("pruning.breakdown_truncated"), 0u);
    OptimalOptions other;
    other.num_threads = 8;
    other.seed_incumbent = OptimalOptions::SeedIncumbent::kNone;
    auto other_census = PruningCensus(tree, k, other);
    ASSERT_TRUE(other_census.ok()) << other_census.status().ToString();
    EXPECT_EQ(PublishedCensus(*other_census), reference);
  }
}

TEST(PruningCountersTest, PaperExampleBreakdownThroughTheFacade) {
  // The census call publishes the same golden counts as the direct
  // ReducedTreeStats call above (Fig. 10).
  auto census = PruningCensus(MakePaperExampleTree(), 2);
  ASSERT_TRUE(census.ok()) << census.status().ToString();
  const std::map<std::string, uint64_t> published = PublishedCensus(*census);
  EXPECT_EQ(published.at("pruning.reduced_tree_nodes"), 8u);
  EXPECT_EQ(published.at("pruning.generated"), 7u);
  EXPECT_EQ(published.at("pruning.property3"), 1u);
  EXPECT_EQ(published.at("pruning.property2"), 0u);
  EXPECT_EQ(published.at("pruning.lemma4"), 0u);
}

TEST(PruningCountersTest, CensusPastItsNodeLimitIsResourceExhausted) {
  // 20 data leaves under a fanout-2 random tree: the unpruned topological
  // tree runs far past the census's 2M-node limit.
  Rng rng(7);
  IndexTree tree = MakeRandomTree(&rng, 20, 2);
  OptimalOptions unpruned;
  unpruned.use_pruning = false;
  auto census = PruningCensus(tree, 2, unpruned);
  ASSERT_FALSE(census.ok());
  EXPECT_EQ(census.status().code(), StatusCode::kResourceExhausted);
}

TEST(PruningCountersTest, RegistryDoesNotChangeThePlansWork) {
  // A serving-loop-shaped instance: 18 Zipf(0.9) items, greedy alphabetic
  // index of fanout 3, two channels. Installing a registry must not change
  // the plan or the work the search does, and the facade publishes only the
  // live search.* counters — the census is never run as a side effect.
  std::vector<double> weights = ZipfWeights(18, 0.9);
  std::vector<DataItem> items;
  for (size_t i = 0; i < weights.size(); ++i) {
    items.push_back({"item" + std::to_string(i), weights[i]});
  }
  auto tree = BuildGreedyAlphabeticTree(items, 3);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_LT(2, tree->max_level_width());  // the exact search runs

  auto plain = FindOptimalAllocation(*tree, 2);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  obs::Registry registry;
  auto observed = [&] {
    obs::ScopedObservability scope(&registry, nullptr);
    return FindOptimalAllocation(*tree, 2);
  }();
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  EXPECT_EQ(observed->slots, plain->slots);
  EXPECT_EQ(observed->average_data_wait, plain->average_data_wait);
  EXPECT_EQ(observed->stats.nodes_expanded, plain->stats.nodes_expanded);

  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr("search.topo_dfs.nodes_expanded", 0),
            plain->stats.nodes_expanded);
  EXPECT_TRUE(PruningCounters(snapshot).empty());
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
