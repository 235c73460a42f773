#include "adversary/wrappers.hpp"

#include <gtest/gtest.h>

#include "adversary/corruption.hpp"
#include "adversary/omission.hpp"
#include "util/check.hpp"

namespace hoval {
namespace {

IntendedRound broadcast_round(int n, Round r, Value v) {
  IntendedRound intended;
  intended.round = r;
  intended.resize(n);
  for (ProcessId q = 0; q < n; ++q) intended.broadcast(q, make_estimate(v));
  return intended;
}

std::shared_ptr<Adversary> corrupt_all(int alpha) {
  RandomCorruptionConfig config;
  config.alpha = alpha;
  return std::make_shared<RandomCorruptionAdversary>(config);
}

int total_altered(const IntendedRound& intended, const DeliveredRound& delivered) {
  int total = 0;
  for (ProcessId p = 0; p < intended.n(); ++p)
    total += delivered.altered(p).count();
  return total;
}

TEST(TransientWindow, ActiveOnlyInsideWindow) {
  TransientWindowAdversary adversary(corrupt_all(2), 3, 5);
  Rng rng(1);
  for (Round r = 1; r <= 8; ++r) {
    const auto intended = broadcast_round(6, r, 1);
    auto delivered = DeliveredRound::faithful(intended);
    adversary.apply(intended, delivered, rng);
    if (r >= 3 && r <= 5) {
      EXPECT_GT(total_altered(intended, delivered), 0) << "round " << r;
    } else {
      EXPECT_EQ(total_altered(intended, delivered), 0) << "round " << r;
    }
  }
}

TEST(TransientWindow, InvalidWindowThrows) {
  EXPECT_THROW(TransientWindowAdversary(corrupt_all(1), 0, 5), PreconditionError);
  EXPECT_THROW(TransientWindowAdversary(corrupt_all(1), 5, 4), PreconditionError);
  EXPECT_THROW(TransientWindowAdversary(nullptr, 1, 2), PreconditionError);
}

TEST(PeriodicBurst, FaultsRecurInBursts) {
  // Burst of 2 rounds every 5: rounds 1,2, 6,7, 11,12 ... are faulty.
  PeriodicBurstAdversary adversary(corrupt_all(1), 5, 2);
  Rng rng(1);
  for (Round r = 1; r <= 12; ++r) {
    const auto intended = broadcast_round(6, r, 1);
    auto delivered = DeliveredRound::faithful(intended);
    adversary.apply(intended, delivered, rng);
    const bool should_be_faulty = (r - 1) % 5 < 2;
    EXPECT_EQ(total_altered(intended, delivered) > 0, should_be_faulty)
        << "round " << r;
  }
}

TEST(Composed, AppliesAllPartsInOrder) {
  auto omit = std::make_shared<RandomOmissionAdversary>(1.0, 1);
  ComposedAdversary adversary({corrupt_all(1), omit});
  Rng rng(1);
  const auto intended = broadcast_round(6, 1, 1);
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);
  // Both effects visible: at least one receiver has an omission and at
  // least one an alteration.
  int omissions = 0;
  for (ProcessId p = 0; p < 6; ++p)
    omissions += 6 - delivered.by_receiver[p].count_received();
  EXPECT_GT(omissions, 0);
  EXPECT_NE(adversary.name().find("->"), std::string::npos);
}

TEST(GoodRound, FullCleanRoundsSuppressInnerAdversary) {
  GoodRoundConfig config;
  config.period = 4;
  config.offset = 0;
  GoodRoundScheduler adversary(corrupt_all(2), config);
  Rng rng(1);
  for (Round r = 1; r <= 12; ++r) {
    const auto intended = broadcast_round(6, r, 1);
    auto delivered = DeliveredRound::faithful(intended);
    adversary.apply(intended, delivered, rng);
    if (r % 4 == 0) {
      EXPECT_EQ(total_altered(intended, delivered), 0) << "round " << r;
      for (ProcessId p = 0; p < 6; ++p)
        EXPECT_EQ(delivered.by_receiver[p].count_received(), 6);
    } else {
      EXPECT_GT(total_altered(intended, delivered), 0) << "round " << r;
    }
  }
}

TEST(GoodRound, MinimalModeCarvesPi1Pi2) {
  const int n = 10;
  GoodRoundConfig config;
  config.period = 2;
  config.offset = 0;
  config.minimal = true;
  config.pi1_size = 5;
  config.pi2_size = 7;
  GoodRoundScheduler adversary(corrupt_all(1), config);
  Rng rng(1);
  const auto intended = broadcast_round(n, 2, 1);  // good round
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);

  // Some receivers hear exactly 7 (Pi1 members), the rest all n.
  int pi1_members = 0;
  for (ProcessId p = 0; p < n; ++p) {
    const int received = delivered.by_receiver[p].count_received();
    EXPECT_TRUE(received == 7 || received == n) << "receiver " << p;
    if (received == 7) ++pi1_members;
    // No corruption on a good round.
    EXPECT_TRUE(delivered.altered(p).empty());
  }
  EXPECT_EQ(pi1_members, 5);
}

TEST(CleanPhase, ProtectsThreeRoundWindow) {
  CleanPhaseConfig config;
  config.period_phases = 3;
  config.offset = 0;
  CleanPhaseScheduler adversary(corrupt_all(2), config);
  // Clean phases are 3, 6, 9...; protected rounds {6,7,8}, {12,13,14}, ...
  EXPECT_FALSE(adversary.is_protected_round(5));
  EXPECT_TRUE(adversary.is_protected_round(6));
  EXPECT_TRUE(adversary.is_protected_round(7));
  EXPECT_TRUE(adversary.is_protected_round(8));
  EXPECT_FALSE(adversary.is_protected_round(9));
  EXPECT_TRUE(adversary.is_protected_round(12));

  Rng rng(1);
  for (Round r = 1; r <= 14; ++r) {
    const auto intended = broadcast_round(6, r, 1);
    auto delivered = DeliveredRound::faithful(intended);
    adversary.apply(intended, delivered, rng);
    EXPECT_EQ(total_altered(intended, delivered) == 0,
              adversary.is_protected_round(r))
        << "round " << r;
  }
}

TEST(CleanPhase, Pi0SubsetDeliveredIdenticallyToAll) {
  const int n = 9;
  CleanPhaseConfig config;
  config.period_phases = 1;  // every phase clean
  config.pi0_size = 6;
  CleanPhaseScheduler adversary(corrupt_all(2), config);
  Rng rng(1);
  const auto intended = broadcast_round(n, 2, 1);  // round 2*phi0, phi0=1
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);

  const auto first_support = delivered.by_receiver[0].support();
  EXPECT_EQ(first_support.count(), 6);
  for (ProcessId p = 1; p < n; ++p)
    EXPECT_EQ(delivered.by_receiver[p].support(), first_support)
        << "Pi0 must be common to all receivers";
}

TEST(SafetyClamp, EnforcesAhoBound) {
  const int n = 8;
  SafetyClampAdversary adversary(corrupt_all(6), /*min_sho=*/-1, /*max_aho=*/2);
  Rng rng(1);
  const auto intended = broadcast_round(n, 1, 1);
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);
  for (ProcessId p = 0; p < n; ++p)
    EXPECT_LE(delivered.altered(p).count(), 2);
}

TEST(SafetyClamp, EnforcesShoBound) {
  const int n = 8;
  auto heavy = std::make_shared<ComposedAdversary>(
      std::vector<std::shared_ptr<Adversary>>{
          corrupt_all(5), std::make_shared<RandomOmissionAdversary>(0.5)});
  SafetyClampAdversary adversary(heavy, /*min_sho=*/5.0, /*max_aho=*/-1);
  Rng rng(1);
  for (Round r = 1; r <= 20; ++r) {
    const auto intended = broadcast_round(n, r, 1);
    auto delivered = DeliveredRound::faithful(intended);
    adversary.apply(intended, delivered, rng);
    for (ProcessId p = 0; p < n; ++p)
      ASSERT_GT(delivered.safe(p).count(), 5) << "round " << r;
  }
}

TEST(SafetyClamp, CombinedBoundsRealiseUSafePattern) {
  // P^{U,safe} with canonical T=E=n/2+alpha: |SHO| > n/2+alpha, |AHO| <= alpha.
  const int n = 10;
  const int alpha = 3;
  const double min_sho = n / 2.0 + alpha;
  SafetyClampAdversary adversary(corrupt_all(n), min_sho, alpha);
  Rng rng(1);
  const auto intended = broadcast_round(n, 1, 1);
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_GT(static_cast<double>(delivered.safe(p).count()), min_sho);
    EXPECT_LE(delivered.altered(p).count(), alpha);
  }
}

}  // namespace
}  // namespace hoval
