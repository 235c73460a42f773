#include "adversary/byzantine.hpp"

#include <gtest/gtest.h>

#include <set>

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

TEST(StaticByzantine, VictimSetHasRequestedSize) {
  StaticByzantineConfig config;
  config.f = 3;
  StaticByzantineAdversary adversary(config);
  Rng rng(1);
  adversary.reset(10, rng);
  EXPECT_EQ(adversary.byzantine_set().size(), 3u);
  const std::set<ProcessId> unique(adversary.byzantine_set().begin(),
                                   adversary.byzantine_set().end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(StaticByzantine, ResetRedrawsPerRun) {
  StaticByzantineConfig config;
  config.f = 2;
  StaticByzantineAdversary adversary(config);
  Rng rng(1);
  std::set<std::vector<ProcessId>> draws;
  for (int i = 0; i < 20; ++i) {
    adversary.reset(12, rng);
    auto set = adversary.byzantine_set();
    std::sort(set.begin(), set.end());
    draws.insert(set);
  }
  EXPECT_GT(draws.size(), 1u);  // overwhelmingly likely
}

TEST(StaticByzantine, OnlyVictimLinksAreAltered) {
  const int n = 8;
  StaticByzantineConfig config;
  config.f = 2;
  config.mode = ByzantineMode::kEquivocate;
  StaticByzantineAdversary adversary(config);
  Rng rng(5);
  adversary.reset(n, rng);
  const std::set<ProcessId> victims(adversary.byzantine_set().begin(),
                                    adversary.byzantine_set().end());

  const auto intended = broadcast_round(n, 1, 4);
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);

  for (ProcessId p = 0; p < n; ++p) {
    for (ProcessId q : delivered.altered(p).members())
      EXPECT_TRUE(victims.count(q)) << "non-victim " << q << " was altered";
    // Every victim link is altered (corrupt_message guarantees change).
    EXPECT_EQ(delivered.altered(p).count(), static_cast<int>(victims.size()));
  }
}

TEST(StaticByzantine, AlteredSpanWithinVictims) {
  // The Sec. 5.2 encoding: AS ⊆ B, so |AS| <= f by construction.
  const int n = 9;
  StaticByzantineConfig config;
  config.f = 4;
  config.mode = ByzantineMode::kFixedPoison;
  config.policy.fixed_value = 1000;
  StaticByzantineAdversary adversary(config);
  Rng rng(5);
  adversary.reset(n, rng);

  ProcessSet altered_span(n);
  for (Round r = 1; r <= 10; ++r) {
    const auto intended = broadcast_round(n, r, 4);
    auto delivered = DeliveredRound::faithful(intended);
    adversary.apply(intended, delivered, rng);
    for (ProcessId p = 0; p < n; ++p)
      for (ProcessId q : delivered.altered(p).members())
        altered_span.insert(q);
  }
  EXPECT_LE(altered_span.count(), 4);
}

TEST(StaticByzantine, IdenticalModeSendsOneCommonValue) {
  // The "symmetrical" / identical-Byzantine model of Fig. 3.
  const int n = 6;
  StaticByzantineConfig config;
  config.f = 1;
  config.mode = ByzantineMode::kIdentical;
  StaticByzantineAdversary adversary(config);
  Rng rng(5);
  adversary.reset(n, rng);
  const ProcessId victim = adversary.byzantine_set().front();

  const auto intended = broadcast_round(n, 1, 4);
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);

  std::set<Msg> seen;
  for (ProcessId p = 0; p < n; ++p) {
    const auto& got = delivered.by_receiver[p].get(victim);
    ASSERT_TRUE(got.has_value());
    seen.insert(*got);
  }
  EXPECT_EQ(seen.size(), 1u) << "identical mode must not equivocate";
  EXPECT_NE(*seen.begin(), make_estimate(4));
}

TEST(StaticByzantine, EquivocateModeSendsDifferentValues) {
  const int n = 12;
  StaticByzantineConfig config;
  config.f = 1;
  config.mode = ByzantineMode::kEquivocate;
  config.policy.pool_lo = 0;
  config.policy.pool_hi = 1000;
  StaticByzantineAdversary adversary(config);
  Rng rng(5);
  adversary.reset(n, rng);
  const ProcessId victim = adversary.byzantine_set().front();

  const auto intended = broadcast_round(n, 1, 4);
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);

  std::set<Msg> seen;
  for (ProcessId p = 0; p < n; ++p)
    seen.insert(*delivered.by_receiver[p].get(victim));
  EXPECT_GT(seen.size(), 1u) << "equivocation should produce diverse values";
}

TEST(StaticByzantine, CrashModeOmits) {
  const int n = 5;
  StaticByzantineConfig config;
  config.f = 2;
  config.mode = ByzantineMode::kCrash;
  StaticByzantineAdversary adversary(config);
  Rng rng(5);
  adversary.reset(n, rng);

  const auto intended = broadcast_round(n, 1, 4);
  auto delivered = DeliveredRound::faithful(intended);
  adversary.apply(intended, delivered, rng);
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(delivered.by_receiver[p].count_received(), 3);
    EXPECT_TRUE(delivered.altered(p).empty());
  }
}

TEST(StaticByzantine, TooManyVictimsThrows) {
  StaticByzantineConfig config;
  config.f = 7;
  StaticByzantineAdversary adversary(config);
  Rng rng(5);
  EXPECT_THROW(adversary.reset(5, rng), PreconditionError);
}

}  // namespace
}  // namespace hoval
