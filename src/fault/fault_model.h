// Fault injection for the broadcast medium.
//
// The paper's access protocol (Section 2.1) assumes every bucket arrives
// intact; real wireless media are lossy and bursty. This module models the
// medium's failure behaviour per channel so the simulators can replay the
// access protocol over an unreliable downlink:
//
//   * Bernoulli loss — each bucket is faulted i.i.d. with probability p.
//   * Gilbert–Elliott — a two-state (Good/Bad) Markov chain per channel with
//     per-state loss probabilities; the Bad state's dwell time is geometric,
//     producing the bursty loss patterns measured on fading channels.
//
// A faulted bucket is either *lost* (deep fade: the client hears nothing for
// the slot) or detectably *corrupted* (the frame arrives but its checksum
// fails). Both make the bucket unusable and cost the listening slot; the
// distinction is kept because the reporting separates them and a future MAC
// layer could react differently (e.g. request a repair only for corruption).
//
// Determinism: all draws come from the caller's Rng — by convention the
// RngStream::kFault substream — so fault realizations are reproducible and,
// crucially, enabling/disabling fault injection never perturbs query
// sampling. A FaultModel with no active channel spec makes *zero* draws.

#ifndef BCAST_FAULT_FAULT_MODEL_H_
#define BCAST_FAULT_FAULT_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace bcast {

enum class LossModelKind {
  kNone,            // lossless medium (the seed simulator's assumption)
  kBernoulli,       // i.i.d. per-bucket loss
  kGilbertElliott,  // two-state burst-loss chain
};

/// Canonical name ("none", "bernoulli", "gilbert-elliott").
const char* LossModelKindName(LossModelKind kind);

/// Loss behaviour of one channel.
struct ChannelLossSpec {
  LossModelKind kind = LossModelKind::kNone;

  /// Bernoulli: per-bucket fault probability.
  double loss_prob = 0.0;

  /// Gilbert–Elliott transition probabilities (per slot).
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 1.0;
  /// Per-state fault probabilities (classic Gilbert: good 0, bad 1).
  double loss_good = 0.0;
  double loss_bad = 1.0;

  /// Fraction of faulted buckets that are detectably corrupted rather than
  /// silently lost. Purely a labeling split; both outcomes waste the slot.
  double corrupt_fraction = 0.0;

  /// Parameter ranges: probabilities in [0,1]; Gilbert–Elliott transition
  /// probabilities strictly positive so the chain is ergodic.
  Status Validate() const;

  /// True iff this spec can ever fault a bucket.
  bool active() const;

  /// Long-run fraction of faulted buckets. Bernoulli: loss_prob.
  /// Gilbert–Elliott: pi_good*loss_good + pi_bad*loss_bad with the stationary
  /// distribution pi of the two-state chain.
  double StationaryLossRate() const;

  /// Stationary probability of the Bad state (Gilbert–Elliott; 0 otherwise).
  double StationaryBadProbability() const;
};

/// Per-channel fault configuration of one broadcast medium.
class FaultModel {
 public:
  /// Lossless medium (any channel count, including media wider than the
  /// schedule — extra channels are simply never observed).
  FaultModel() = default;

  /// One spec per channel. Errors if any spec fails Validate().
  static Result<FaultModel> Create(std::vector<ChannelLossSpec> per_channel);

  /// The same spec on every one of `num_channels` channels.
  static Result<FaultModel> CreateUniform(int num_channels,
                                          const ChannelLossSpec& spec);

  /// True iff any channel can fault. Inactive models make zero Rng draws.
  bool active() const { return active_; }

  /// True iff any channel is a Gilbert–Elliott chain, the only kind whose
  /// state a FaultProcess carries from one observation to the next.
  bool has_gilbert_elliott() const { return has_gilbert_elliott_; }

  int num_channels() const { return static_cast<int>(per_channel_.size()); }

  /// Spec of `channel`; channels beyond the configured range are lossless
  /// (so a model built for k channels is safe on any k'-channel schedule).
  const ChannelLossSpec& channel(int channel) const;

 private:
  explicit FaultModel(std::vector<ChannelLossSpec> per_channel);

  std::vector<ChannelLossSpec> per_channel_;
  bool active_ = false;
  bool has_gilbert_elliott_ = false;
};

/// What the client got out of one listened slot.
enum class BucketOutcome : uint8_t {
  kOk,         // bucket received intact
  kLost,       // nothing received (deep fade / dropout)
  kCorrupted,  // received but failed the checksum
};

/// One realization of the faulty medium, observed lazily along a client's
/// listening pattern. Per channel the Gilbert–Elliott chain is initialized
/// from its stationary distribution at the first observed slot and advanced
/// transition-by-transition to each later observed slot, so burst
/// correlation across the slots a client actually listens to is exact.
/// Observations on one channel must be at non-decreasing slot times.
class FaultProcess {
 public:
  /// `model` must outlive the process. Draws from `rng` (not owned).
  FaultProcess(const FaultModel& model, Rng* rng);

  /// Outcome of listening to `channel` during absolute slot `slot`.
  BucketOutcome Observe(int channel, int64_t slot);

 private:
  /// Lazily realized state of one channel's loss chain (Gilbert–Elliott; the
  /// memoryless models never touch it).
  struct ChannelState {
    bool initialized = false;
    bool bad = false;       // current Gilbert–Elliott state
    int64_t last_slot = 0;  // slot the state refers to
  };

  const FaultModel& model_;
  Rng* rng_;
  // Thread-confined, deliberately unannotated (util/thread_annotations.h
  // conventions): a FaultProcess is owned by one simulated client and its
  // lazily realized per-channel states are only ever touched from that
  // client's Observe() calls — there is no lock whose capability could
  // guard them. Empty unless the model has a Gilbert–Elliott channel, so a
  // memoryless medium costs no allocation per client.
  std::vector<ChannelState> states_;
};

}  // namespace bcast

#endif  // BCAST_FAULT_FAULT_MODEL_H_
