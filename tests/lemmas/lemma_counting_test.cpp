/// Property tests for the counting lemmas of the paper (Lemmas 1, 2, 6, 7).
/// These are checked against randomly generated rounds and adversaries, so
/// they validate the *implementation* against the statements the proofs
/// rely on.

#include <gtest/gtest.h>

#include "adversary/corruption.hpp"
#include "core/factories.hpp"
#include "model/reception.hpp"
#include "sim/initial_values.hpp"
#include "util/rng.hpp"

namespace hoval {
namespace {

IntendedRound intended_from(const ProcessVector& processes, Round r) {
  IntendedRound intended;
  intended.round = r;
  const int n = static_cast<int>(processes.size());
  intended.resize(n);
  for (ProcessId q = 0; q < n; ++q)
    for (ProcessId p = 0; p < n; ++p)
      intended.send(q, p, processes[static_cast<std::size_t>(q)]->message_for(r, p));
  return intended;
}

/// |Q^r(v)|: processes whose sending function emits value v (to receiver 0;
/// our algorithms broadcast, so the column does not matter).
int q_count(const IntendedRound& intended, Value v) {
  int count = 0;
  for (ProcessId q = 0; q < intended.n(); ++q) {
    const Msg& m = intended.intended(q, 0);
    if (m.payload == v) ++count;
  }
  return count;
}

TEST(Lemma1, ReceivedBoundedByIntendedPlusAltered) {
  // |R_p^r(v)| <= |Q^r(v)| + |AHO(p,r)| for every value and process, under
  // arbitrary bounded corruption.
  Rng seed_rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 5 + static_cast<int>(seed_rng.below(10));
    const int alpha = static_cast<int>(seed_rng.below(4));
    Rng value_rng(seed_rng.next());
    // Lemma 1 is a pure counting statement — it holds for any thresholds,
    // so the algorithm parameters only need to be well-formed.
    auto processes = make_ate_instance(AteParams::one_third_rule(n),
                                       random_values(n, 4, value_rng));
    const auto intended = intended_from(processes, 1);
    auto delivered = DeliveredRound::faithful(intended);

    RandomCorruptionConfig config;
    config.alpha = alpha;
    config.policy.style = CorruptionStyle::kRandomValue;
    RandomCorruptionAdversary adversary(config);
    Rng fault_rng(seed_rng.next());
    adversary.apply(intended, delivered, fault_rng);

    for (ProcessId p = 0; p < n; ++p) {
      const auto& mu = delivered.by_receiver[static_cast<std::size_t>(p)];
      const int aho = delivered.altered(p).count();
      for (const auto& [value, count] : mu.payload_histogram(MsgKind::kEstimate)) {
        ASSERT_LE(count, q_count(intended, value) + aho)
            << "n=" << n << " alpha=" << alpha << " p=" << p << " v=" << value;
      }
    }
  }
}

TEST(Lemma2, DecisionGuardUniqueWhenEAtLeastHalf) {
  // With E >= n/2, at most one value can be received strictly more than E
  // times — on *any* reception vector, even fully adversarial ones.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(15));
    const double e = n / 2.0;
    ReceptionVector mu(n);
    for (ProcessId q = 0; q < n; ++q)
      if (rng.chance(0.9))
        mu.set(q, make_estimate(static_cast<Value>(rng.below(3))));

    int values_above_e = 0;
    for (const auto& [value, count] : mu.payload_histogram(MsgKind::kEstimate))
      if (static_cast<double>(count) > e) ++values_above_e;
    ASSERT_LE(values_above_e, 1) << "n=" << n;
  }
}

TEST(Lemma2Counterexample, GuardNotUniqueBelowHalf) {
  // Sanity check that the bound is tight: with E < n/2 two values can
  // simultaneously clear the guard.
  const int n = 10;
  const double e = 3.0;  // < n/2
  ReceptionVector mu(n);
  for (ProcessId q = 0; q < 5; ++q) mu.set(q, make_estimate(1));
  for (ProcessId q = 5; q < 10; ++q) mu.set(q, make_estimate(2));
  int values_above_e = 0;
  for (const auto& [value, count] : mu.payload_histogram(MsgKind::kEstimate))
    if (static_cast<double>(count) > e) ++values_above_e;
  EXPECT_EQ(values_above_e, 2);
}

TEST(Lemma6, IntersectionExceedsAlpha) {
  // |A| + |B| > n + alpha  =>  |A ∩ B| > alpha.
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(20));
    const int alpha = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    ProcessSet a(n);
    ProcessSet b(n);
    for (ProcessId p = 0; p < n; ++p) {
      if (rng.chance(0.7)) a.insert(p);
      if (rng.chance(0.7)) b.insert(p);
    }
    if (a.count() + b.count() > n + alpha) {
      ASSERT_GT(a.intersect(b).count(), alpha)
          << "n=" << n << " alpha=" << alpha << " A=" << a.to_string()
          << " B=" << b.to_string();
    }
  }
}

TEST(Lemma7, VoteDecisionGuardUniqueWhenEAtLeastHalf) {
  // The vote-round analogue of Lemma 2.
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(15));
    ReceptionVector mu(n);
    for (ProcessId q = 0; q < n; ++q) {
      if (!rng.chance(0.85)) continue;
      if (rng.chance(0.3)) {
        mu.set(q, make_question_vote());
      } else {
        mu.set(q, make_vote(static_cast<Value>(rng.below(3))));
      }
    }
    int values_above_e = 0;
    for (const auto& [value, count] : mu.payload_histogram(MsgKind::kVote))
      if (static_cast<double>(count) > n / 2.0) ++values_above_e;
    ASSERT_LE(values_above_e, 1);
  }
}

TEST(Lemma8Property, UniqueTrueVotePerRound) {
  // With T >= n/2 + alpha and P_alpha, all true votes cast in a round are
  // for one value.  Exercise round 1 of U under maximal allowed corruption.
  Rng seed_rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 4 + static_cast<int>(seed_rng.below(10));
    const int alpha = static_cast<int>(
        seed_rng.below(static_cast<std::uint64_t>(n / 2) + 1));
    const auto params = UteaParams::canonical(n, alpha);
    Rng value_rng(seed_rng.next());
    auto processes = make_utea_instance(params, random_values(n, 3, value_rng));

    const auto intended = intended_from(processes, 1);
    auto delivered = DeliveredRound::faithful(intended);
    RandomCorruptionConfig config;
    config.alpha = alpha;
    RandomCorruptionAdversary adversary(config);
    Rng fault_rng(seed_rng.next());
    adversary.apply(intended, delivered, fault_rng);

    std::set<Value> true_votes;
    for (ProcessId p = 0; p < n; ++p) {
      processes[static_cast<std::size_t>(p)]->transition(
          1, delivered.by_receiver[static_cast<std::size_t>(p)]);
      auto* u = dynamic_cast<UteaProcess*>(processes[static_cast<std::size_t>(p)].get());
      ASSERT_NE(u, nullptr);
      if (u->vote()) true_votes.insert(*u->vote());
    }
    ASSERT_LE(true_votes.size(), 1u)
        << "n=" << n << " alpha=" << alpha << " trial=" << trial;
  }
}

}  // namespace
}  // namespace hoval
