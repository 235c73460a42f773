#include "adversary/adversary.hpp"

#include <gtest/gtest.h>

#include "adversary/omission.hpp"
#include "util/check.hpp"

namespace hoval {
namespace {

IntendedRound broadcast_round(int n, Round r, Value base) {
  IntendedRound intended;
  intended.round = r;
  intended.resize(n);
  for (ProcessId q = 0; q < n; ++q) intended.broadcast(q, make_estimate(base + q));
  return intended;
}

TEST(Delivered, FaithfulDeliveryMatchesIntent) {
  const auto intended = broadcast_round(4, 1, 10);
  const auto delivered = DeliveredRound::faithful(intended);
  ASSERT_EQ(delivered.n(), 4);
  for (ProcessId p = 0; p < 4; ++p) {
    for (ProcessId q = 0; q < 4; ++q) {
      const auto& got = delivered.by_receiver[p].get(q);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, make_estimate(10 + q));
    }
    EXPECT_EQ(delivered.safe(p), ProcessSet::universe(4));
  }
}

TEST(Delivered, PutOmitRestore) {
  const auto intended = broadcast_round(3, 1, 0);
  auto delivered = DeliveredRound::faithful(intended);

  delivered.put(1, 0, make_estimate(99));
  EXPECT_EQ(delivered.safe(0).count(), 2);
  EXPECT_EQ(delivered.altered(0).members(), (std::vector<ProcessId>{1}));

  delivered.omit(2, 0);
  EXPECT_EQ(delivered.safe(0).count(), 1);
  // Unsafe = altered (1) + omitted (2).
  EXPECT_EQ(delivered.safe(0).complement().members(),
            (std::vector<ProcessId>{1, 2}));
  // Omitted links are not "altered".
  EXPECT_EQ(delivered.altered(0).members(), (std::vector<ProcessId>{1}));

  delivered.restore(intended, 1, 0);
  delivered.restore(intended, 2, 0);
  EXPECT_EQ(delivered.safe(0).count(), 3);
}

TEST(CorruptMessage, AlwaysDiffersFromOriginal) {
  Rng rng(1);
  const Msg original = make_estimate(5);
  for (CorruptionStyle style :
       {CorruptionStyle::kGarbage, CorruptionStyle::kRandomValue,
        CorruptionStyle::kOffsetValue, CorruptionStyle::kFixedValue}) {
    CorruptionPolicy policy;
    policy.style = style;
    policy.fixed_value = 5;  // deliberately collides with the original
    policy.pool_lo = 5;
    policy.pool_hi = 5;
    for (int i = 0; i < 20; ++i)
      EXPECT_NE(corrupt_message(original, policy, rng), original);
  }
}

TEST(CorruptMessage, GarbageFlipsKindAndDropsPayload) {
  Rng rng(1);
  CorruptionPolicy policy;
  policy.style = CorruptionStyle::kGarbage;
  const Msg garbled = corrupt_message(make_estimate(5), policy, rng);
  EXPECT_EQ(garbled.kind, MsgKind::kVote);
  EXPECT_FALSE(garbled.payload.has_value());
  const Msg garbled_vote = corrupt_message(make_vote(5), policy, rng);
  EXPECT_EQ(garbled_vote.kind, MsgKind::kEstimate);
}

TEST(CorruptMessage, FixedValuePoison) {
  Rng rng(1);
  CorruptionPolicy policy;
  policy.style = CorruptionStyle::kFixedValue;
  policy.fixed_value = 777;
  EXPECT_EQ(corrupt_message(make_estimate(5), policy, rng),
            make_estimate(777));
  EXPECT_EQ(corrupt_message(make_vote(5), policy, rng), make_vote(777));
}

TEST(IdentityAdversary, ChangesNothing) {
  const auto intended = broadcast_round(5, 1, 0);
  auto delivered = DeliveredRound::faithful(intended);
  IdentityAdversary identity;
  Rng rng(1);
  identity.apply(intended, delivered, rng);
  for (ProcessId p = 0; p < 5; ++p) EXPECT_EQ(delivered.safe(p).count(), 5);
  EXPECT_EQ(identity.name(), "identity");
}

TEST(RandomOmission, RespectsCapPerReceiver) {
  const auto intended = broadcast_round(10, 1, 0);
  RandomOmissionAdversary adversary(1.0, 3);  // drop everything, capped at 3
  auto delivered = DeliveredRound::faithful(intended);
  Rng rng(7);
  adversary.apply(intended, delivered, rng);
  for (ProcessId p = 0; p < 10; ++p) {
    EXPECT_EQ(delivered.by_receiver[p].count_received(), 7);
    // Omissions only: delivered messages are all safe.
    EXPECT_EQ(delivered.safe(p).count(), 7);
  }
}

TEST(RandomOmission, ZeroProbabilityDropsNothing) {
  const auto intended = broadcast_round(6, 1, 0);
  RandomOmissionAdversary adversary(0.0);
  auto delivered = DeliveredRound::faithful(intended);
  Rng rng(7);
  adversary.apply(intended, delivered, rng);
  for (ProcessId p = 0; p < 6; ++p)
    EXPECT_EQ(delivered.by_receiver[p].count_received(), 6);
}

TEST(RandomOmission, InvalidProbabilityThrows) {
  EXPECT_THROW(RandomOmissionAdversary(-0.1), PreconditionError);
  EXPECT_THROW(RandomOmissionAdversary(1.1), PreconditionError);
}

TEST(Crash, VictimsSilencedFromCrashRound) {
  CrashAdversary adversary(2, 3);
  Rng rng(5);
  adversary.reset(6, rng);

  const auto before = broadcast_round(6, 2, 0);
  auto delivered_before = DeliveredRound::faithful(before);
  adversary.apply(before, delivered_before, rng);
  for (ProcessId p = 0; p < 6; ++p)
    EXPECT_EQ(delivered_before.by_receiver[p].count_received(), 6);

  const auto after = broadcast_round(6, 3, 0);
  auto delivered_after = DeliveredRound::faithful(after);
  adversary.apply(after, delivered_after, rng);
  for (ProcessId p = 0; p < 6; ++p)
    EXPECT_EQ(delivered_after.by_receiver[p].count_received(), 4);
}

TEST(IntendedRound, AccessorBoundsChecked) {
  const auto intended = broadcast_round(3, 1, 0);
  EXPECT_THROW((void)intended.intended(3, 0), PreconditionError);
  EXPECT_THROW((void)intended.intended(0, -1), PreconditionError);
}

}  // namespace
}  // namespace hoval
