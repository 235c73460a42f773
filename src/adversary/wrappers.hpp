#pragma once

/// \file wrappers.hpp
/// Adversary combinators:
///  * ComposedAdversary     — runs several adversaries in sequence
///  * TransientWindowAdversary / PeriodicBurstAdversary — make any
///    adversary *transient* (the fault class the paper targets)
///  * GoodRoundScheduler    — injects rounds satisfying P^{A,live} (Fig. 1)
///  * CleanPhaseScheduler   — injects phases satisfying P^{U,live} (Fig. 2)
///  * SafetyClampAdversary  — repairs deliveries until per-receiver
///    |SHO| / |AHO| bounds hold, enforcing P_alpha and/or P^{U,safe} (Eq. 7)
///    on top of an arbitrary inner adversary.
///
/// Together these build runs that provably satisfy the paper's
/// communication predicates while being as hostile as the predicates allow.

#include <limits>
#include <memory>
#include <vector>

#include "adversary/adversary.hpp"

namespace hoval {

/// Applies each inner adversary in order on the same round.
class ComposedAdversary final : public Adversary {
 public:
  explicit ComposedAdversary(std::vector<std::shared_ptr<Adversary>> parts);

  std::string name() const override;
  void reset(int n, Rng& rng) override;
  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override;

 private:
  std::vector<std::shared_ptr<Adversary>> parts_;
};

/// Inner adversary active only for rounds in [from, to] (inclusive);
/// outside the window communication is faithful.  Models a single
/// transient fault burst.
class TransientWindowAdversary final : public Adversary {
 public:
  TransientWindowAdversary(std::shared_ptr<Adversary> inner, Round from, Round to);

  std::string name() const override;
  void reset(int n, Rng& rng) override;
  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override;

 private:
  std::shared_ptr<Adversary> inner_;
  Round from_;
  Round to_;
};

/// Inner adversary active during the first `burst` rounds of every
/// `period`-round cycle.  Models recurring transient disturbances.
class PeriodicBurstAdversary final : public Adversary {
 public:
  PeriodicBurstAdversary(std::shared_ptr<Adversary> inner, int period, int burst);

  std::string name() const override;
  void reset(int n, Rng& rng) override;
  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override;

 private:
  std::shared_ptr<Adversary> inner_;
  int period_;
  int burst_;
};

/// Configuration of GoodRoundScheduler.
struct GoodRoundConfig {
  int period = 10;  ///< rounds r with r ≡ offset (mod period) are good
  int offset = 0;
  /// When true, a good round is *minimal*: only a random Pi^1 of size
  /// pi1_size hears exactly a random Pi^2 of size pi2_size (uncorrupted);
  /// everyone else hears all of Pi faithfully.  When false the whole round
  /// is faithful (Pi^1 = Pi^2 = Pi).
  bool minimal = false;
  int pi1_size = 0;  ///< must be > E - alpha for the predicate to hold
  int pi2_size = 0;  ///< must be > T
};

/// Suppresses the inner adversary on scheduled rounds, realising the
/// eventual clause of P^{A,live}: infinitely many rounds where some
/// Pi^1 (|Pi^1| > E - alpha) hears exactly some Pi^2 (|Pi^2| > T) with
/// HO = SHO = Pi^2, and where every process hears > T / safely > E.
class GoodRoundScheduler final : public Adversary {
 public:
  GoodRoundScheduler(std::shared_ptr<Adversary> inner, GoodRoundConfig config);

  std::string name() const override;
  void reset(int n, Rng& rng) override;
  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override;

  bool is_good_round(Round r) const noexcept;

 private:
  std::shared_ptr<Adversary> inner_;
  GoodRoundConfig config_;
};

/// Configuration of CleanPhaseScheduler.
struct CleanPhaseConfig {
  int period_phases = 5;  ///< phases phi with phi ≡ offset (mod period) are clean
  int offset = 0;
  /// |Pi_0| for the round-2*phi0 "everyone hears exactly Pi_0" clause;
  /// 0 or >= n means Pi_0 = Pi.
  int pi0_size = 0;
};

/// Suppresses the inner adversary on the three-round window of P^{U,live}
/// (Fig. 2): at a clean phase phi0, round 2*phi0 delivers exactly from a
/// common Pi_0 (uncorrupted, identical for all receivers), and rounds
/// 2*phi0+1, 2*phi0+2 are fully faithful (so |SHO| > T resp. > max(E,alpha)).
class CleanPhaseScheduler final : public Adversary {
 public:
  CleanPhaseScheduler(std::shared_ptr<Adversary> inner, CleanPhaseConfig config);

  std::string name() const override;
  void reset(int n, Rng& rng) override;
  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override;

  /// True when round `r` falls in a protected window {2*phi0, 2*phi0+1,
  /// 2*phi0+2} for some clean phase phi0.
  bool is_protected_round(Round r) const noexcept;

 private:
  std::shared_ptr<Adversary> inner_;
  CleanPhaseConfig config_;
};

/// Repairs the inner adversary's output per receiver until
///   |SHO(p,r)| > min_sho   and   |AHO(p,r)| <= max_aho
/// by restoring faithful copies on altered links first, then on omitted
/// links.  With min_sho = max(n + 2*alpha - E - 1, T, alpha) this enforces
/// P^{U,safe}; with max_aho = alpha it enforces P_alpha.
class SafetyClampAdversary final : public Adversary {
 public:
  /// Pass min_sho < 0 to disable the SHO clamp and max_aho < 0 to disable
  /// the AHO clamp.
  SafetyClampAdversary(std::shared_ptr<Adversary> inner, double min_sho,
                       int max_aho);

  std::string name() const override;
  void reset(int n, Rng& rng) override;
  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override;

 private:
  std::shared_ptr<Adversary> inner_;
  double min_sho_;
  int max_aho_;
  // Per-receiver scratch, grown once and reused every round.
  std::vector<ProcessId> candidates_;  ///< links to repair, ascending then shuffled
  ProcessSet ho_scratch_;
  ProcessSet safe_scratch_;
};

}  // namespace hoval
