#include "fault/fault_model.h"

#include <utility>

#include "util/check.h"

namespace bcast {

namespace {

Status CheckProbability(double p, const char* name) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return InvalidArgumentError(std::string(name) +
                                " must be a probability in [0, 1], got " +
                                std::to_string(p));
  }
  return Status::Ok();
}

}  // namespace

const char* LossModelKindName(LossModelKind kind) {
  switch (kind) {
    case LossModelKind::kNone:
      return "none";
    case LossModelKind::kBernoulli:
      return "bernoulli";
    case LossModelKind::kGilbertElliott:
      return "gilbert-elliott";
  }
  return "?";
}

Status ChannelLossSpec::Validate() const {
  BCAST_RETURN_IF_ERROR(CheckProbability(loss_prob, "loss_prob"));
  BCAST_RETURN_IF_ERROR(CheckProbability(p_good_to_bad, "p_good_to_bad"));
  BCAST_RETURN_IF_ERROR(CheckProbability(p_bad_to_good, "p_bad_to_good"));
  BCAST_RETURN_IF_ERROR(CheckProbability(loss_good, "loss_good"));
  BCAST_RETURN_IF_ERROR(CheckProbability(loss_bad, "loss_bad"));
  BCAST_RETURN_IF_ERROR(CheckProbability(corrupt_fraction, "corrupt_fraction"));
  if (kind == LossModelKind::kGilbertElliott) {
    // Ergodicity: both states must be leavable, otherwise the stationary
    // distribution (and every rate reported from it) is ill-defined.
    if (p_good_to_bad <= 0.0 || p_bad_to_good <= 0.0) {
      return InvalidArgumentError(
          "gilbert-elliott transition probabilities must be > 0 "
          "(p_good_to_bad=" +
          std::to_string(p_good_to_bad) +
          ", p_bad_to_good=" + std::to_string(p_bad_to_good) + ")");
    }
  }
  return Status::Ok();
}

bool ChannelLossSpec::active() const {
  switch (kind) {
    case LossModelKind::kNone:
      return false;
    case LossModelKind::kBernoulli:
      return loss_prob > 0.0;
    case LossModelKind::kGilbertElliott:
      return loss_good > 0.0 || loss_bad > 0.0;
  }
  return false;
}

double ChannelLossSpec::StationaryBadProbability() const {
  if (kind != LossModelKind::kGilbertElliott) return 0.0;
  return p_good_to_bad / (p_good_to_bad + p_bad_to_good);
}

double ChannelLossSpec::StationaryLossRate() const {
  switch (kind) {
    case LossModelKind::kNone:
      return 0.0;
    case LossModelKind::kBernoulli:
      return loss_prob;
    case LossModelKind::kGilbertElliott: {
      double pi_bad = StationaryBadProbability();
      return (1.0 - pi_bad) * loss_good + pi_bad * loss_bad;
    }
  }
  return 0.0;
}

FaultModel::FaultModel(std::vector<ChannelLossSpec> per_channel)
    : per_channel_(std::move(per_channel)) {
  for (const ChannelLossSpec& spec : per_channel_) {
    if (spec.active()) active_ = true;
    if (spec.kind == LossModelKind::kGilbertElliott) {
      has_gilbert_elliott_ = true;
    }
  }
}

Result<FaultModel> FaultModel::Create(
    std::vector<ChannelLossSpec> per_channel) {
  for (size_t c = 0; c < per_channel.size(); ++c) {
    Status valid = per_channel[c].Validate();
    if (!valid.ok()) {
      return InvalidArgumentError("channel " + std::to_string(c + 1) + ": " +
                                  valid.message());
    }
  }
  return FaultModel(std::move(per_channel));
}

Result<FaultModel> FaultModel::CreateUniform(int num_channels,
                                             const ChannelLossSpec& spec) {
  if (num_channels < 1) {
    return InvalidArgumentError("need at least one channel");
  }
  return Create(
      std::vector<ChannelLossSpec>(static_cast<size_t>(num_channels), spec));
}

const ChannelLossSpec& FaultModel::channel(int channel) const {
  static const ChannelLossSpec kLossless;
  if (channel < 0 || channel >= num_channels()) return kLossless;
  return per_channel_[static_cast<size_t>(channel)];
}

FaultProcess::FaultProcess(const FaultModel& model, Rng* rng)
    : model_(model), rng_(rng) {
  if (model.has_gilbert_elliott()) {
    states_.resize(static_cast<size_t>(model.num_channels()));
  }
}

BucketOutcome FaultProcess::Observe(int channel, int64_t slot) {
  const ChannelLossSpec& spec = model_.channel(channel);
  if (!spec.active()) return BucketOutcome::kOk;

  bool faulted = false;
  switch (spec.kind) {
    case LossModelKind::kNone:
      return BucketOutcome::kOk;
    case LossModelKind::kBernoulli:
      faulted = rng_->Bernoulli(spec.loss_prob);
      break;
    case LossModelKind::kGilbertElliott: {
      ChannelState& state = states_[static_cast<size_t>(channel)];
      if (!state.initialized) {
        state.bad = rng_->Bernoulli(spec.StationaryBadProbability());
        state.last_slot = slot;
        state.initialized = true;
      } else {
        BCAST_CHECK_GE(slot, state.last_slot)
            << "fault observations on a channel must move forward in time";
        // Advance the chain one transition per elapsed slot; the client's
        // listening pattern is sparse but bursts must still line up with
        // wall-clock slots.
        while (state.last_slot < slot) {
          double p_leave = state.bad ? spec.p_bad_to_good : spec.p_good_to_bad;
          if (rng_->Bernoulli(p_leave)) state.bad = !state.bad;
          ++state.last_slot;
        }
      }
      faulted = rng_->Bernoulli(state.bad ? spec.loss_bad : spec.loss_good);
      break;
    }
  }
  if (!faulted) return BucketOutcome::kOk;
  return rng_->Bernoulli(spec.corrupt_fraction) ? BucketOutcome::kCorrupted
                                                : BucketOutcome::kLost;
}

}  // namespace bcast
