#include "workload/population.h"

#include <algorithm>
#include <utility>

#include "workload/weights.h"

namespace bcast {

namespace {

// Deterministic id-keyed membership test: client_id belongs to the fraction-f
// subset iff a mixed hash of (id, salt), viewed as uniform in [0, 1), falls
// below f. Membership never consumes an Rng draw, so enabling one population
// knob cannot shift another client's stream — and it is stable across shard
// and thread counts by construction.
bool InFraction(uint64_t client_id, uint64_t salt, double fraction) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  uint64_t h = MixSeed(client_id ^ MixSeed(salt));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < fraction;
}

constexpr uint64_t kDozeSalt = 0x446f7a65ull;      // "Doze"
constexpr uint64_t kDegradedSalt = 0x44656772ull;  // "Degr"

Status CheckFraction(double f, const char* name) {
  if (!(f >= 0.0 && f <= 1.0)) {
    return InvalidArgumentError(std::string(name) +
                                " must be in [0, 1], got " +
                                std::to_string(f));
  }
  return Status::Ok();
}

}  // namespace

Status PopulationSpec::Validate() const {
  if (num_clients < 1) {
    return InvalidArgumentError("num_clients must be >= 1");
  }
  if (!(zipf_theta >= 0.0)) {
    return InvalidArgumentError("zipf_theta must be >= 0, got " +
                                std::to_string(zipf_theta));
  }
  if (arrival_horizon_cycles < 1) {
    return InvalidArgumentError("arrival_horizon_cycles must be >= 1, got " +
                                std::to_string(arrival_horizon_cycles));
  }
  BCAST_RETURN_IF_ERROR(CheckFraction(doze_fraction, "doze_fraction"));
  BCAST_RETURN_IF_ERROR(CheckFraction(degraded_fraction, "degraded_fraction"));
  if (doze_fraction > 0.0 && max_doze_cycles < 1) {
    return InvalidArgumentError(
        "doze_fraction > 0 requires max_doze_cycles >= 1");
  }
  return Status::Ok();
}

Result<PopulationSampler> PopulationSampler::Create(
    const IndexTree& tree, const PopulationSpec& spec) {
  BCAST_RETURN_IF_ERROR(spec.Validate());
  return PopulationSampler(tree, spec);
}

PopulationSampler::PopulationSampler(const IndexTree& tree,
                                     const PopulationSpec& spec)
    : spec_(spec), data_nodes_(tree.DataNodes()) {
  const int count = static_cast<int>(data_nodes_.size());
  std::vector<double> weights;
  switch (spec_.interest) {
    case PopulationSpec::Interest::kTreeWeights:
      for (NodeId d : data_nodes_) weights.push_back(tree.weight(d));
      break;
    case PopulationSpec::Interest::kZipf:
      weights = ZipfWeights(count, spec_.zipf_theta);
      break;
    case PopulationSpec::Interest::kUniform:
      weights = EqualWeights(count, 1.0);
      break;
  }
  cumulative_.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    acc += w;
    cumulative_.push_back(acc);
  }
}

PopulationSampler::ClientDraw PopulationSampler::DrawClient(
    uint64_t client_id, Rng* rng, int64_t cycle_length) const {
  ClientDraw draw;
  // Draw order is contractual — see the file comment.
  double point = rng->UniformDouble() * cumulative_.back();
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), point);
  if (it == cumulative_.end()) --it;
  draw.target = data_nodes_[static_cast<size_t>(it - cumulative_.begin())];
  const double cycle = static_cast<double>(cycle_length);
  draw.arrival = rng->UniformDouble(
      0.0, static_cast<double>(spec_.arrival_horizon_cycles) * cycle);
  if (spec_.doze_fraction > 0.0 &&
      InFraction(client_id, kDozeSalt, spec_.doze_fraction)) {
    draw.arrival +=
        static_cast<double>(rng->UniformInt(1, spec_.max_doze_cycles)) * cycle;
  }
  draw.degraded =
      InFraction(client_id, kDegradedSalt, spec_.degraded_fraction);
  return draw;
}

}  // namespace bcast
