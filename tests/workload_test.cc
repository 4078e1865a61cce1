#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <type_traits>
#include <vector>

#include "tree/builders.h"
#include "util/rng.h"
#include "workload/population.h"
#include "workload/weights.h"

namespace bcast {
namespace {

TEST(WeightsTest, UniformWeightsRespectRange) {
  Rng rng(1);
  std::vector<double> w = UniformWeights(&rng, 1000, 5.0, 10.0);
  ASSERT_EQ(w.size(), 1000u);
  for (double x : w) {
    EXPECT_GE(x, 5.0);
    EXPECT_LT(x, 10.0);
  }
  double mean = std::accumulate(w.begin(), w.end(), 0.0) / 1000.0;
  EXPECT_NEAR(mean, 7.5, 0.2);
}

TEST(WeightsTest, NormalWeightsMatchMoments) {
  Rng rng(2);
  std::vector<double> w = NormalWeights(&rng, 20000, 100.0, 20.0);
  double mean = std::accumulate(w.begin(), w.end(), 0.0) / w.size();
  double var = 0.0;
  for (double x : w) var += (x - mean) * (x - mean);
  var /= static_cast<double>(w.size());
  EXPECT_NEAR(mean, 100.0, 1.0);
  EXPECT_NEAR(std::sqrt(var), 20.0, 1.0);
}

TEST(WeightsTest, NormalWeightsClampAtMinimum) {
  Rng rng(3);
  std::vector<double> w = NormalWeights(&rng, 5000, 1.0, 50.0, 0.5);
  for (double x : w) EXPECT_GE(x, 0.5);
}

TEST(WeightsTest, ZipfWeightsDescendAndNormalize) {
  std::vector<double> w = ZipfWeights(100, 0.8, 1000.0);
  ASSERT_EQ(w.size(), 100u);
  for (size_t i = 1; i < w.size(); ++i) EXPECT_LT(w[i], w[i - 1]);
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1000.0, 1e-6);
}

TEST(WeightsTest, ZipfThetaZeroIsUniform) {
  std::vector<double> w = ZipfWeights(10, 0.0, 100.0);
  for (double x : w) EXPECT_NEAR(x, 10.0, 1e-9);
}

TEST(WeightsTest, EqualWeights) {
  std::vector<double> w = EqualWeights(7, 3.5);
  ASSERT_EQ(w.size(), 7u);
  for (double x : w) EXPECT_DOUBLE_EQ(x, 3.5);
}

TEST(QuerySamplerTest, SamplesProportionallyToWeights) {
  IndexTree tree = MakePaperExampleTree();  // A:20 B:10 C:15 D:7 E:18
  auto sampler = PopulationSampler::Create(tree, PopulationSpec{});
  ASSERT_TRUE(sampler.ok()) << sampler.status().ToString();
  Rng rng(4);
  std::vector<int> hits(static_cast<size_t>(tree.num_nodes()), 0);
  const int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) {
    NodeId d = sampler->DrawClient(static_cast<uint64_t>(i), &rng,
                                   /*cycle_length=*/10)
                   .target;
    ASSERT_TRUE(tree.is_data(d));
    ++hits[static_cast<size_t>(d)];
  }
  for (NodeId d : tree.DataNodes()) {
    double expected = tree.weight(d) / 70.0 * kDraws;
    EXPECT_NEAR(hits[static_cast<size_t>(d)], expected, expected * 0.1)
        << tree.label(d);
  }
}

TEST(PopulationSamplerTest, RejectsZeroTotalWeight) {
  // A sampler draws from a finalized tree, and Finalize already rejects a
  // tree whose data weights sum to zero.
  IndexTree tree;
  NodeId root = tree.AddIndexNode(kInvalidNode, "r");
  tree.AddDataNode(root, 0.0, "z");
  Status status = tree.Finalize();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("positive finite weight"), std::string::npos);
}

// --- RNG ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

// Rng's engine is a hand-written MT19937-64 that seeds on demand; its
// output must be std::mt19937_64's, output for output. The draw counts end
// at and around the points where on-demand seeding finishes (156 outputs)
// and where a block ends (312 outputs).
constexpr uint64_t kEngineDrawCounts[] = {0,   1,   155, 156, 157,
                                          311, 312, 313, 624, 10'000};

std::vector<uint64_t> EngineTestSeeds() {
  std::vector<uint64_t> seeds = {0, 5489, UINT64_MAX};
  for (uint64_t i = 0; i < 200; ++i) seeds.push_back(MixSeed(i));
  return seeds;
}

TEST(RngTest, EngineMatchesStdMt19937_64) {
  const std::vector<uint64_t> seeds = EngineTestSeeds();
  for (size_t s = 0; s < seeds.size(); ++s) {
    for (uint64_t draws : kEngineDrawCounts) {
      // The three fixed seeds run every count; the mixed seeds one each.
      const size_t pick = s % std::size(kEngineDrawCounts);
      if (s >= 3 && draws != kEngineDrawCounts[pick]) continue;
      SCOPED_TRACE(testing::Message() << "seed " << seeds[s] << ", draws "
                                      << draws);
      Rng rng(seeds[s]);
      std::mt19937_64 reference(seeds[s]);
      for (uint64_t i = 0; i < draws; ++i) {
        ASSERT_EQ(rng.NextU64(), reference()) << "output " << i;
      }
      EXPECT_EQ(rng.draw_count(), draws);
    }
  }
}

TEST(RngTest, EngineMatchesTheStandardCheckValue) {
  // The standard fixes the 10,000th output of a default-seeded (5489)
  // mt19937_64.
  Rng rng(5489);
  uint64_t output = 0;
  for (int i = 0; i < 10'000; ++i) output = rng.NextU64();
  EXPECT_EQ(output, 9981545732273789042ull);
}

TEST(RngTest, CopyTakenMidBlockContinuesIdentically) {
  for (uint64_t split : kEngineDrawCounts) {
    SCOPED_TRACE(testing::Message() << "copied after " << split);
    Rng original(0xC0FFEE);
    for (uint64_t i = 0; i < split; ++i) original.NextU64();
    // Before 156 draws the original has not yet seeded its whole state; the
    // copies must finish seeding it exactly as the original does.
    Rng copied(original);
    Rng assigned(1);
    assigned.NextU64();
    assigned = original;
    Rng copy_of_copy(copied);
    EXPECT_EQ(copied.draw_count(), split);
    EXPECT_EQ(assigned.draw_count(), split);
    for (int i = 0; i < 700; ++i) {
      const uint64_t expected = original.NextU64();
      ASSERT_EQ(copied.NextU64(), expected) << "output " << i;
      ASSERT_EQ(assigned.NextU64(), expected) << "output " << i;
      ASSERT_EQ(copy_of_copy.NextU64(), expected) << "output " << i;
    }
  }
}

// Rng::PrepareDraws seeds fresh generators in lockstep, Rng::kSeedLanes
// chains at a time. Blocks of 1 to 2 * kSeedLanes + 1 generators cover full
// and ragged lane groups; the draw counts run across the end of on-demand
// seeding (156 outputs) and past the whole state (312 words), where
// preparing stops.
TEST(RngTest, LockstepSeedingMatchesStdEngine) {
  constexpr uint64_t kPreparedDraws[] = {0, 1, 2, 3, 155, 156, 157, 300, 400};
  for (size_t block = 1; block <= 2 * Rng::kSeedLanes + 1; ++block) {
    for (uint64_t prepared : kPreparedDraws) {
      SCOPED_TRACE(testing::Message() << "block " << block << ", prepared "
                                      << prepared);
      std::vector<Rng> rngs;
      for (size_t i = 0; i < block; ++i) {
        rngs.emplace_back(MixSeed(block * 1000 + prepared * 10 + i));
      }
      Rng::PrepareDraws(rngs, prepared);
      for (size_t i = 0; i < block; ++i) {
        EXPECT_EQ(rngs[i].draw_count(), 0u);
        // A copy and an assignment of a prepared generator carry its
        // seeded words and continue exactly as it does.
        Rng copied(rngs[i]);
        Rng assigned(7);
        assigned.NextU64();
        assigned = rngs[i];
        std::mt19937_64 reference(rngs[i].seed());
        for (int k = 0; k < 700; ++k) {
          const uint64_t expected = reference();
          ASSERT_EQ(rngs[i].NextU64(), expected) << "rng " << i << " output "
                                                  << k;
          ASSERT_EQ(copied.NextU64(), expected) << "copy " << i;
          ASSERT_EQ(assigned.NextU64(), expected) << "assigned " << i;
        }
        EXPECT_EQ(rngs[i].draw_count(), 700u);
      }
    }
  }
}

// A generator already drawn from or prepared is no lane of the lockstep;
// PrepareDraws extends its seeding on its own, and its outputs and draw
// count stay the std engine's.
TEST(RngTest, PrepareDrawsLeavesDrawnAndPreparedGeneratorsExact) {
  constexpr uint64_t kDrawnBefore[] = {0, 0, 1, 2, 155, 156, 157, 400, 0, 0};
  std::vector<Rng> rngs;
  std::vector<std::mt19937_64> references;
  for (size_t i = 0; i < std::size(kDrawnBefore); ++i) {
    rngs.emplace_back(MixSeed(i));
    references.emplace_back(MixSeed(i));
    for (uint64_t k = 0; k < kDrawnBefore[i]; ++k) {
      ASSERT_EQ(rngs[i].NextU64(), references[i]());
    }
  }
  // The last two are prepared once already, for fewer and for more draws.
  Rng::PrepareDraws(std::span<Rng>(rngs).subspan(8, 1), 1);
  Rng::PrepareDraws(std::span<Rng>(rngs).subspan(9, 1), 200);
  Rng::PrepareDraws(rngs, 16);
  for (size_t i = 0; i < rngs.size(); ++i) {
    EXPECT_EQ(rngs[i].draw_count(), kDrawnBefore[i]) << i;
    for (int k = 0; k < 700; ++k) {
      ASSERT_EQ(rngs[i].NextU64(), references[i]()) << i << " output " << k;
    }
  }
}

TEST(RngTest, DrawCountAndUniformIntRejectionMatchTheStdEngine) {
  // A range just above 2^62 rejects about a quarter of all raw draws, so
  // the draw count pins how many engine outputs each rejection loop took.
  const int64_t hi = int64_t{1} << 62;
  const uint64_t range = static_cast<uint64_t>(hi) + 1;
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  Rng rng(99);
  std::mt19937_64 reference(99);
  uint64_t reference_draws = 0;
  for (int i = 0; i < 2000; ++i) {
    uint64_t draw;
    do {
      draw = reference();
      ++reference_draws;
    } while (draw >= limit);
    ASSERT_EQ(rng.UniformInt(0, hi), static_cast<int64_t>(draw % range));
    ASSERT_EQ(rng.draw_count(), reference_draws);
  }
  EXPECT_GT(reference_draws, 2300u);  // the rejection loop really ran
  // Every helper bottoms out in NextU64: one draw per uniform double.
  const uint64_t before = rng.draw_count();
  rng.UniformDouble();
  rng.Bernoulli(0.5);
  EXPECT_EQ(rng.draw_count(), before + 2);
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    saw_lo |= v == 1;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, UniformDoubleInHalfOpenRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(7);
  std::vector<double> weights = {0.0, 3.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[1], 7500, 300);
  EXPECT_NEAR(counts[2], 2500, 300);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(8);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// --- Status / Result -----------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad fanout");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad fanout");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok_result(42);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);

  Result<int> err_result(NotFoundError("missing"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, RvalueDereferenceMoves) {
  // A move-only value: `*std::move(result)` compiles only if it moves.
  Result<std::unique_ptr<int>> result(std::make_unique<int>(7));
  static_assert(std::is_same_v<decltype(*std::move(result)),
                               std::unique_ptr<int>&&>);
  std::unique_ptr<int> taken = *std::move(result);
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(*taken, 7);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(*result, nullptr);  // NOLINT(bugprone-use-after-move)
}

TEST(ResultDeathTest, ValueOnErrorChecks) {
  Result<int> err_result(NotFoundError("missing"));
  EXPECT_DEATH(err_result.value(), "missing");
}

}  // namespace
}  // namespace bcast
