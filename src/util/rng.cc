#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace bcast {

uint64_t MixSeed(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Rng::Rng(const Rng& other)
    : seed_(other.seed_),
      draws_(other.draws_),
      seeded_(other.seeded_),
      pos_(other.pos_),
      has_spare_normal_(other.has_spare_normal_),
      spare_normal_(other.spare_normal_) {
  std::copy_n(other.state_, seeded_, state_);
}

Rng& Rng::operator=(const Rng& other) {
  if (this == &other) return *this;
  seed_ = other.seed_;
  draws_ = other.draws_;
  seeded_ = other.seeded_;
  pos_ = other.pos_;
  has_spare_normal_ = other.has_spare_normal_;
  spare_normal_ = other.spare_normal_;
  std::copy_n(other.state_, seeded_, state_);
  return *this;
}

void Rng::SeedThrough(size_t last) {
  for (; seeded_ <= last; ++seeded_) {
    const uint64_t prev = state_[seeded_ - 1];
    state_[seeded_] = kSeedMultiplier * (prev ^ (prev >> 62)) + seeded_;
  }
}

void Rng::PrepareDraws(std::span<Rng> rngs, uint64_t draws) {
  if (draws == 0) return;
  // Output i < kShift reads initial words i + 1 and i + kShift, so the first
  // `draws` outputs read words through kShift + draws - 1.
  const size_t last = draws >= kStateWords - kShift
                          ? kStateWords - 1
                          : kShift - 1 + static_cast<size_t>(draws);
  Rng* lanes[kSeedLanes];
  size_t filled = 0;
  for (Rng& rng : rngs) {
    if (rng.seeded_ != 1) {  // drawn from or prepared already
      rng.SeedThrough(last);
      continue;
    }
    lanes[filled++] = &rng;
    if (filled == kSeedLanes) {
      SeedLockstep(lanes, filled, last);
      filled = 0;
    }
  }
  if (filled > 0) SeedLockstep(lanes, filled, last);
}

void Rng::SeedLockstep(Rng* const* lanes, size_t count, size_t last) {
  // Idle lanes of a short batch run lane 0's chain again and store the same
  // words into lane 0, so every loop below has the same fixed width and
  // unrolls into registers.
  Rng* lane[kSeedLanes];
  uint64_t word[kSeedLanes];
#pragma GCC unroll 16
  for (size_t l = 0; l < kSeedLanes; ++l) {
    lane[l] = lanes[l < count ? l : 0];
    word[l] = lane[l]->state_[0];
  }
  for (size_t w = 1; w <= last; ++w) {
#pragma GCC unroll 16
    for (size_t l = 0; l < kSeedLanes; ++l) {
      word[l] = kSeedMultiplier * (word[l] ^ (word[l] >> 62)) + w;
      lane[l]->state_[w] = word[l];
    }
  }
#pragma GCC unroll 16
  for (size_t l = 0; l < kSeedLanes; ++l) lane[l]->seeded_ = last + 1;
}

Rng Rng::Substream(RngStream stream) const {
  return Rng(SubstreamSeed(stream));
}

Rng Rng::Substream(RngStream stream, uint64_t key) const {
  return Rng(SubstreamSeed(stream, key));
}

uint64_t Rng::SubstreamSeed(RngStream stream) const {
  return MixSeed(seed_ ^ MixSeed(static_cast<uint64_t>(stream)));
}

uint64_t Rng::SubstreamSeed(RngStream stream, uint64_t key) const {
  return MixSeed(SubstreamSeed(stream) ^ MixSeed(key));
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  BCAST_CHECK_LE(lo, hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {  // Full 64-bit range: hi - lo + 1 wrapped to 0.
    return static_cast<int64_t>(NextU64());
  }
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t draw;
  do {
    draw = NextU64();
  } while (draw >= limit);
  return lo + static_cast<int64_t>(draw % range);
}

double Rng::UniformDouble() {
  // 53 uniform mantissa bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  BCAST_CHECK_LE(lo, hi);
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal(double mean, double stddev) {
  BCAST_CHECK_GE(stddev, 0.0);
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  // Box–Muller transform.
  double u1;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  double u2 = UniformDouble();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  spare_normal_ = radius * std::sin(theta);
  has_spare_normal_ = true;
  return mean + stddev * radius * std::cos(theta);
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    BCAST_CHECK_GE(w, 0.0);
    total += w;
  }
  BCAST_CHECK_GT(total, 0.0) << "WeightedIndex needs a positive total weight";
  double target = UniformDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  // Floating-point slack: fall back to the last positive weight.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace bcast
