#pragma once

/// \file omission.hpp
/// Benign-fault adversaries: message loss only (SHO stays equal to HO on
/// every delivered link).  These reproduce the environment of the original
/// benign HO model [6] and drive the benign baselines.

#include "adversary/adversary.hpp"

namespace hoval {

/// Drops each transmission independently with a fixed probability, with an
/// optional cap on omissions per receiver per round (so experiments can
/// guarantee |HO(p,r)| >= n - cap).
///
/// Victims are drawn word-at-a-time: one BernoulliBlock lane per incoming
/// link, 64 links per refill, instead of one rng.chance() per link.  When
/// the Bernoulli draw exceeds the cap, a uniform cap-subset of the victims
/// is kept — distributionally identical to the historical random-order
/// drop-until-cap loop (which dropped the first `cap` successes of a
/// uniformly shuffled link order, i.e. a uniform cap-subset).
class RandomOmissionAdversary final : public Adversary {
 public:
  /// \param drop_probability  per-link loss probability in [0,1]
  /// \param max_omissions_per_receiver  cap per receiver per round;
  ///        negative means unlimited
  explicit RandomOmissionAdversary(double drop_probability,
                                   int max_omissions_per_receiver = -1);

  std::string name() const override;
  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override;

 private:
  double drop_probability_;
  int max_omissions_per_receiver_;
  /// Per-receiver victim mask, reused across receivers, rounds and runs —
  /// no per-round heap traffic (the pre-kernel code allocated and shuffled
  /// a fresh order vector per receiver per round).
  ProcessSet victim_scratch_;
};

/// Crash-style omissions: at reset a victim set of the given size is drawn;
/// from its (per-victim) crash round on, a victim's outgoing messages are
/// all lost.  Models the classical "crash" benign fault as a transmission
/// fault pattern.
class CrashAdversary final : public Adversary {
 public:
  /// \param victims      how many processes eventually fall silent
  /// \param crash_round  first silent round for every victim; victims are
  ///                     drawn uniformly at reset
  CrashAdversary(int victims, Round crash_round);

  std::string name() const override;
  void reset(int n, Rng& rng) override;
  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override;

 private:
  int victims_;
  Round crash_round_;
  ProcessSet victim_set_;  ///< drawn at reset
};

}  // namespace hoval
