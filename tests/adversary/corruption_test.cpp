#include "adversary/corruption.hpp"

#include <gtest/gtest.h>

#include "adversary/bivalence.hpp"
#include "adversary/block_fault.hpp"
#include "adversary/split_vote.hpp"
#include "util/check.hpp"

namespace hoval {
namespace {

IntendedRound broadcast_round(int n, Round r, const std::vector<Value>& estimates) {
  IntendedRound intended;
  intended.round = r;
  intended.resize(n);
  for (ProcessId q = 0; q < n; ++q) intended.broadcast(q, make_estimate(estimates[q]));
  return intended;
}

int altered_count(const DeliveredRound& delivered, ProcessId p) {
  return delivered.altered(p).count();
}

TEST(RandomCorruption, NeverExceedsAlphaPerReceiver) {
  const int n = 12;
  RandomCorruptionConfig config;
  config.alpha = 4;
  RandomCorruptionAdversary adversary(config);
  Rng rng(3);
  for (Round r = 1; r <= 50; ++r) {
    const auto intended = broadcast_round(n, r, std::vector<Value>(n, 1));
    auto delivered = DeliveredRound::faithful(intended);
    adversary.apply(intended, delivered, rng);
    for (ProcessId p = 0; p < n; ++p)
      ASSERT_LE(altered_count(delivered, p), 4)
          << "round " << r << " receiver " << p;
  }
}

TEST(RandomCorruption, AlwaysMaxCorruptsExactlyAlpha) {
  const int n = 8;
  RandomCorruptionConfig config;
  config.alpha = 3;
  config.always_max = true;
  config.attack_probability = 1.0;
  RandomCorruptionAdversary adversary(config);
  Rng rng(3);
  const auto intended = broadcast_round(n, 1, std::vector<Value>(n, 1));
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);
  for (ProcessId p = 0; p < n; ++p)
    EXPECT_EQ(altered_count(delivered, p), 3);
}

TEST(RandomCorruption, ZeroAlphaIsIdentity) {
  const int n = 6;
  RandomCorruptionAdversary adversary(RandomCorruptionConfig{});
  Rng rng(3);
  const auto intended = broadcast_round(n, 1, std::vector<Value>(n, 1));
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);
  for (ProcessId p = 0; p < n; ++p)
    EXPECT_EQ(delivered.safe(p).count(), n);
}

TEST(RandomCorruption, AttackProbabilityZeroNeverAttacks) {
  RandomCorruptionConfig config;
  config.alpha = 5;
  config.attack_probability = 0.0;
  RandomCorruptionAdversary adversary(config);
  Rng rng(3);
  const auto intended = broadcast_round(8, 1, std::vector<Value>(8, 1));
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);
  for (ProcessId p = 0; p < 8; ++p)
    EXPECT_EQ(altered_count(delivered, p), 0);
}

TEST(RandomCorruption, CorruptionsNeverDropMessages) {
  // Value-fault only: |HO| stays n.
  RandomCorruptionConfig config;
  config.alpha = 6;
  RandomCorruptionAdversary adversary(config);
  Rng rng(3);
  const auto intended = broadcast_round(9, 1, std::vector<Value>(9, 2));
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);
  for (ProcessId p = 0; p < 9; ++p)
    EXPECT_EQ(delivered.by_receiver[p].count_received(), 9);
}

TEST(SplitVote, PushesCampsApart) {
  const int n = 8;
  SplitVoteConfig config;
  config.alpha = 2;
  config.low_value = 0;
  config.high_value = 1;
  SplitVoteAdversary adversary(config);
  Rng rng(3);
  // Even split of genuine estimates.
  std::vector<Value> values(n);
  for (int i = 0; i < n; ++i) values[i] = i < n / 2 ? 0 : 1;
  const auto intended = broadcast_round(n, 1, values);
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);
  // Low camp receivers see 4 genuine + 2 forged = 6 copies of value 0.
  EXPECT_EQ(delivered.by_receiver[0].count_payload(MsgKind::kEstimate, 0), 6);
  // High camp receivers see 6 copies of value 1.
  EXPECT_EQ(delivered.by_receiver[n - 1].count_payload(MsgKind::kEstimate, 1), 6);
  // P_alpha compliance.
  for (ProcessId p = 0; p < n; ++p)
    EXPECT_LE(altered_count(delivered, p), 2);
}

TEST(SplitVote, EqualTargetsRejected) {
  SplitVoteConfig config;
  config.low_value = 3;
  config.high_value = 3;
  EXPECT_THROW(SplitVoteAdversary{config}, PreconditionError);
}

TEST(BlockFault, OneVictimPerRound) {
  const int n = 10;
  BlockFaultConfig config;
  config.mode = BlockFaultMode::kCorrupt;
  config.rotate = true;
  BlockFaultAdversary adversary(config);
  Rng rng(3);
  const auto intended = broadcast_round(n, 4, std::vector<Value>(n, 1));
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);

  // Victim of round 4 (rotating) is process 3; budget n/2 = 5.
  int total_altered = 0;
  for (ProcessId p = 0; p < n; ++p) {
    const auto altered = delivered.altered(p).members();
    total_altered += static_cast<int>(altered.size());
    for (ProcessId q : altered) EXPECT_EQ(q, 3);
    EXPECT_LE(altered.size(), 1u);  // per-receiver alpha = 1
  }
  EXPECT_EQ(total_altered, 5);
}

TEST(BlockFault, OmitModeDropsInsteadOfCorrupting) {
  const int n = 6;
  BlockFaultConfig config;
  config.mode = BlockFaultMode::kOmit;
  config.budget = 4;
  BlockFaultAdversary adversary(config);
  Rng rng(3);
  const auto intended = broadcast_round(n, 1, std::vector<Value>(n, 1));
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);
  int missing = 0;
  for (ProcessId p = 0; p < n; ++p) {
    missing += n - delivered.by_receiver[p].count_received();
    EXPECT_TRUE(delivered.altered(p).empty());
  }
  EXPECT_EQ(missing, 4);
}

TEST(Bivalence, MaintainsSplitWithoutExceedingBudget) {
  const int n = 10;
  BivalenceConfig config;
  config.alpha = 2;
  config.threshold_e = 2.0 / 3.0 * n;
  BivalenceAdversary adversary(config);
  Rng rng(3);
  std::vector<Value> values(n);
  for (int i = 0; i < n; ++i) values[i] = i < n / 2 ? 0 : 1;
  const auto intended = broadcast_round(n, 1, values);
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);

  for (ProcessId p = 0; p < n; ++p) {
    ASSERT_LE(altered_count(delivered, p), 2);
    const auto& mu = delivered.by_receiver[p];
    const Value target = p < n / 2 ? 0 : 1;
    // The target value is the strict winner of smallest-most-frequent.
    EXPECT_EQ(mu.smallest_most_frequent(MsgKind::kEstimate), target);
    // And no value crosses the decision threshold.
    EXPECT_FALSE(
        mu.payload_exceeding(MsgKind::kEstimate, config.threshold_e).has_value());
  }
  EXPECT_GT(adversary.forgeries(), 0);
}

TEST(Bivalence, FabricatesSecondValueFromUnanimity) {
  // Stalling from a *unanimous* start is expensive: flipping the winner at
  // a receiver takes ceil((n+1)/2) forgeries (consistent with A's fast
  // path being hard to derail).  Give the adversary that budget.
  const int n = 8;
  BivalenceConfig config;
  config.alpha = 5;
  config.threshold_e = 2.0 / 3.0 * n;
  BivalenceAdversary adversary(config);
  Rng rng(3);
  const auto intended = broadcast_round(n, 1, std::vector<Value>(n, 5));
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);
  // High-camp receivers should now see value 6 (= 5+1) winning.
  const auto& mu = delivered.by_receiver[n - 1];
  EXPECT_EQ(mu.smallest_most_frequent(MsgKind::kEstimate), 6);
}

}  // namespace
}  // namespace hoval
