// Deterministic pseudo-random number generation for workloads, simulators and
// property tests. Rng is an MT19937-64 engine — output for output the same
// sequence as std::mt19937_64, which the standard fixes exactly — plus the
// distribution helpers this library actually needs, so call sites never
// instantiate std::*_distribution directly (their outputs are not portable
// across standard-library implementations for some distributions; we
// implement the ones we need on top of the raw engine to keep experiment
// outputs reproducible across toolchains).
//
// The engine is hand-written so that it seeds on demand. The population
// simulator builds one or two generators per client and draws only a few
// values from each; std::mt19937_64 would compute all 312 state words and
// twist them before the first output. Here the constructor stores only the
// seed, and each draw extends the seeding recurrence just as far as its
// twist reads (157 words for the first output, one more for each of the
// next 155) and twists its own state word in place.
//
// Seeding is still the bulk of a short-lived generator's cost: each word of
// the recurrence x[w] = f * (x[w-1] ^ (x[w-1] >> 62)) + w needs the word
// before it, so the 157 multiplies in front of a first output run strictly
// back to back and the CPU's multiplier idles between them. Two generators'
// chains share nothing, though. Rng::PrepareDraws therefore seeds a batch of
// fresh generators in lockstep: it advances several chains one word index at
// a time, so their independent multiplies overlap in the pipeline, and it
// computes each chain exactly as SeedThrough would. The population simulator
// prepares a block of client generators this way before drawing from any.

#ifndef BCAST_UTIL_RNG_H_
#define BCAST_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace bcast {

/// Named substreams: logically independent random processes that share one
/// user-facing seed. Drawing from one substream never perturbs another, so
/// e.g. turning fault injection on (which consumes kFault draws) leaves the
/// kQuery stream — and therefore every sampled query — bit-identical.
enum class RngStream : uint64_t {
  kQuery = 0x5175657279ull,      // workload/query sampling
  kFault = 0x4661756c74ull,      // fault-injection draws (loss, corruption)
  kTree = 0x54726565ull,         // random tree/input generation
  kTaskFault = 0x5461736b46ull,  // planner-side task fault injection
  kClient = 0x436c69656e74ull,   // per-client population-sim streams (keyed)
};

/// SplitMix64 finalizer: a full-avalanche 64-bit mix. This is the single
/// derivation primitive behind every substream seed (named and keyed), so
/// code that records or re-derives a substream without holding an engine
/// computes exactly what Rng::Substream would construct from.
uint64_t MixSeed(uint64_t x);

/// Seedable PRNG with portable distribution helpers.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) : seed_(seed) {
    state_[0] = seed;
  }

  /// A copy carries only the state words already computed; it seeds the
  /// rest on demand exactly as the original would.
  Rng(const Rng& other);
  Rng& operator=(const Rng& other);

  /// Raw 64 uniform bits: the next std::mt19937_64 output for seed().
  uint64_t NextU64() {
    ++draws_;
    if (pos_ == kStateWords) pos_ = 0;
    const size_t i = pos_++;
    // Only the first half of the first block (i < kShift) can read initial
    // words not yet seeded: its twist of word i reads i + 1 and i + kShift.
    if (seeded_ < kStateWords) SeedThrough(i + kShift);
    // The block twist, one word at a time and in the same order as
    // std::mt19937_64's: words after i still hold the previous block, words
    // before i already hold this one.
    const uint64_t y = (state_[i] & kUpperMask) |
                       (state_[i + 1 == kStateWords ? 0 : i + 1] & kLowerMask);
    const size_t j = i + kShift;
    uint64_t z = state_[j < kStateWords ? j : j - kStateWords] ^ (y >> 1) ^
                 ((y & 1) != 0 ? kMatrixA : 0);
    state_[i] = z;
    // Tempering.
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

  /// Engine invocations so far (every distribution helper bottoms out in
  /// NextU64). Recording this per substream makes a run reproducible from
  /// its metrics snapshot: seed + draw counts pin the consumed prefix.
  uint64_t draw_count() const { return draws_; }

  /// Construction seed. Together with draw_count() this pins the exact
  /// random prefix this generator has consumed.
  uint64_t seed() const { return seed_; }

  /// Derives the named substream of this generator. The derivation depends
  /// only on the construction seed and the stream name — never on how many
  /// draws have been made — so substreams are mutually independent and stable
  /// no matter when they are forked.
  Rng Substream(RngStream stream) const;

  /// Keyed substream: one independent stream per (stream, key) pair — the
  /// population simulator derives client c's generator as
  /// Substream(RngStream::kClient, c). Like the named form, the derivation
  /// never depends on the draw position.
  Rng Substream(RngStream stream, uint64_t key) const;

  /// The seed Substream(stream) would construct its engine from. Lets a
  /// caller record or re-derive a substream without constructing it.
  uint64_t SubstreamSeed(RngStream stream) const;

  /// The seed of the keyed substream Substream(stream, key).
  uint64_t SubstreamSeed(RngStream stream, uint64_t key) const;

  /// Seeds every generator in `rngs` for its first `draws` outputs: the
  /// state words those outputs read (through word 155 + draws, at most the
  /// whole state) are computed now, and later draws seed on demand as
  /// usual. Fresh generators are seeded in lockstep, several chains side by
  /// side; one already drawn from or prepared is extended on its own. Either
  /// way this only moves seeding work earlier: every output and every
  /// draw_count() stays std::mt19937_64's.
  static void PrepareDraws(std::span<Rng> rngs, uint64_t draws);

  /// Chains PrepareDraws advances side by side. The seeding multiply takes
  /// several cycles but can start every cycle, so independent chains keep
  /// it busy. On a 4-core x86-64 host (GCC 12, -O2) 8 lanes seeded a client
  /// for 2 draws in ~115 ns against ~185 ns with 4 and ~410 ns serially.
  static constexpr size_t kSeedLanes = 8;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Normal via Box–Muller (portable across standard libraries).
  double Normal(double mean, double stddev);

  /// Bernoulli(p).
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      std::swap((*items)[i], (*items)[j]);
    }
  }

 private:
  // MT19937-64 parameters (word count, shift, twist matrix, masks).
  static constexpr size_t kStateWords = 312;
  static constexpr size_t kShift = 156;
  static constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
  static constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
  static constexpr uint64_t kLowerMask = ~kUpperMask;

  static constexpr uint64_t kSeedMultiplier = 6364136223846793005ull;

  // Extends the seeding recurrence so that initial words [0, last] exist.
  void SeedThrough(size_t last);

  // PrepareDraws' kernel: seeds words [1, last] of `count` fresh generators
  // (1 to kSeedLanes) side by side.
  static void SeedLockstep(Rng* const* lanes, size_t count, size_t last);

  uint64_t seed_;
  uint64_t draws_ = 0;
  // Words [0, seeded_) of state_ are computed; the rest are never read
  // before SeedThrough writes them. state_ is left uninitialized on purpose:
  // writing its 2.5 KB per generator is the cost this engine avoids.
  size_t seeded_ = 1;
  // Index of the next word to twist and output; kStateWords ends a block.
  size_t pos_ = kStateWords;
  // Box–Muller produces values in pairs; cache the spare.
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
  uint64_t state_[kStateWords];
};

}  // namespace bcast

#endif  // BCAST_UTIL_RNG_H_
