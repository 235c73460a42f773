/// Parameterised end-to-end checks of Theorem 1: under P_alpha (enforced by
/// construction) with Theorem-1 thresholds, A_{T,E} never violates
/// Agreement/Integrity; with P^{A,live} good rounds injected, it terminates;
/// and it keeps the OneThirdRule fast path.

#include <gtest/gtest.h>

#include "adversary/corruption.hpp"
#include "adversary/split_vote.hpp"
#include "adversary/wrappers.hpp"
#include "core/factories.hpp"
#include "predicates/liveness.hpp"
#include "predicates/safety.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"
#include "sim/initial_values.hpp"

namespace hoval {
namespace {

/// Runs one campaign on a pool shared by every test in this file.
CampaignResult run_via_pool(const ValueGenerator& values,
                            const InstanceBuilder& instance,
                            const AdversaryBuilder& adversary,
                            const CampaignConfig& config) {
  static Executor executor;
  return executor.submit(values, instance, adversary, config).take();
}

struct AteCase {
  int n;
  int alpha;
  CorruptionStyle style;
};

std::string case_name(const testing::TestParamInfo<AteCase>& info) {
  std::string style;
  switch (info.param.style) {
    case CorruptionStyle::kGarbage: style = "garbage"; break;
    case CorruptionStyle::kRandomValue: style = "random"; break;
    case CorruptionStyle::kOffsetValue: style = "offset"; break;
    case CorruptionStyle::kFixedValue: style = "poison"; break;
  }
  return "n" + std::to_string(info.param.n) + "_a" +
         std::to_string(info.param.alpha) + "_" + style;
}

class AteTheoremTest : public testing::TestWithParam<AteCase> {};

AdversaryBuilder bounded_corruption(int alpha, CorruptionStyle style) {
  return [alpha, style] {
    RandomCorruptionConfig config;
    config.alpha = alpha;
    config.policy.style = style;
    return std::make_shared<RandomCorruptionAdversary>(config);
  };
}

TEST_P(AteTheoremTest, SafetyHoldsUnderPAlpha) {
  const auto [n, alpha, style] = GetParam();
  const auto params = AteParams::canonical(n, alpha);
  ASSERT_TRUE(params.theorem1_conditions());

  CampaignConfig config;
  config.runs = 40;
  config.sim.max_rounds = 30;
  config.sim.stop_when_all_decided = false;  // keep checking after decisions
  config.base_seed = mix_seed(static_cast<std::uint64_t>(n),
                              static_cast<std::uint64_t>(alpha), 1);
  config.predicates.push_back(std::make_shared<PAlpha>(alpha));

  const auto result = run_via_pool(
      [n = n](Rng& rng) { return random_values(n, 3, rng); },
      [params](const std::vector<Value>& init) {
        return make_ate_instance(params, init);
      },
      bounded_corruption(alpha, style), config);

  EXPECT_TRUE(result.safety_clean())
      << params.to_string() << ": " << result.summary()
      << (result.violations.empty() ? "" : "\n  " + result.violations.front());
  // The adversary is P_alpha-compliant by construction.
  EXPECT_EQ(result.predicate_holds[0], result.runs);
}

TEST_P(AteTheoremTest, IntegrityHoldsOnUnanimousStart) {
  const auto [n, alpha, style] = GetParam();
  const auto params = AteParams::canonical(n, alpha);

  CampaignConfig config;
  config.runs = 30;
  config.sim.max_rounds = 30;
  config.sim.stop_when_all_decided = false;
  config.base_seed = mix_seed(static_cast<std::uint64_t>(n),
                              static_cast<std::uint64_t>(alpha), 2);

  const auto result = run_via_pool(
      [n = n](Rng&) { return unanimous_values(n, 6); },
      [params](const std::vector<Value>& init) {
        return make_ate_instance(params, init);
      },
      bounded_corruption(alpha, style), config);

  EXPECT_EQ(result.integrity_violations, 0) << result.summary();
  EXPECT_EQ(result.agreement_violations, 0) << result.summary();
}

TEST_P(AteTheoremTest, TerminatesWithGoodRounds) {
  const auto [n, alpha, style] = GetParam();
  const auto params = AteParams::canonical(n, alpha);

  CampaignConfig config;
  config.runs = 25;
  config.sim.max_rounds = 40;
  // Run to the horizon even after deciding: P^{A,live}'s eventual clauses
  // are evaluated on the recorded prefix, and a run that decides before
  // the first scheduled good round would otherwise have no witness.
  config.sim.stop_when_all_decided = false;
  config.base_seed = mix_seed(static_cast<std::uint64_t>(n),
                              static_cast<std::uint64_t>(alpha), 3);
  config.predicates.push_back(std::make_shared<PALive>(
      n, params.threshold_t, params.threshold_e, params.alpha));

  const auto result = run_via_pool(
      [n = n](Rng& rng) { return random_values(n, 3, rng); },
      [params](const std::vector<Value>& init) {
        return make_ate_instance(params, init);
      },
      [&] {
        GoodRoundConfig good;
        good.period = 5;
        return std::make_shared<GoodRoundScheduler>(
            bounded_corruption(alpha, style)(), good);
      },
      config);

  EXPECT_TRUE(result.safety_clean()) << result.summary();
  EXPECT_EQ(result.terminated, result.runs) << result.summary();
  // P^{A,live} must hold on the executed prefixes (witnessing the predicate
  // the theorem assumes).
  EXPECT_EQ(result.predicate_holds[0], result.runs);
  // Decision comes within a good-round period of the start (plus slack).
  EXPECT_LE(result.last_decision_rounds.max(), 12.0) << result.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AteTheoremTest,
    testing::Values(
        AteCase{5, 1, CorruptionStyle::kRandomValue},
        AteCase{8, 1, CorruptionStyle::kFixedValue},
        AteCase{9, 2, CorruptionStyle::kRandomValue},
        AteCase{9, 2, CorruptionStyle::kGarbage},
        AteCase{13, 3, CorruptionStyle::kRandomValue},
        AteCase{16, 3, CorruptionStyle::kOffsetValue},
        AteCase{17, 4, CorruptionStyle::kRandomValue},
        AteCase{21, 5, CorruptionStyle::kFixedValue},
        AteCase{12, 0, CorruptionStyle::kRandomValue}),  // benign special case
    case_name);

TEST(AteFastPath, UnanimousOneRoundSplitTwoRounds) {
  // Sec. 3.3: from any initial configuration there is a run deciding in two
  // rounds; with unanimous inputs, in one round.  The fault-free run is
  // such a run.
  for (int n : {4, 7, 10, 33}) {
    const int alpha = AteParams::max_tolerated_alpha(n);
    const auto params = AteParams::canonical(n, alpha);

    Simulator unanimous(make_ate_instance(params, unanimous_values(n, 5)),
                        std::make_shared<IdentityAdversary>(), SimConfig{});
    const auto u = unanimous.run();
    EXPECT_TRUE(u.all_decided) << "n=" << n;
    EXPECT_EQ(u.last_decision_round, 1) << "n=" << n;

    Simulator split(make_ate_instance(params, split_values(n, 1, 9)),
                    std::make_shared<IdentityAdversary>(), SimConfig{});
    const auto s = split.run();
    EXPECT_TRUE(s.all_decided) << "n=" << n;
    EXPECT_EQ(s.last_decision_round, 2) << "n=" << n;
  }
}

TEST(AteTheorem, OneThirdRuleIsAlphaZeroSpecialCase) {
  // A_{2n/3,2n/3} == OneThirdRule: identical behaviour on identical runs.
  const int n = 9;
  auto a = make_ate_instance(AteParams::canonical(n, 0), split_values(n, 2, 4));
  auto b = make_one_third_rule_instance(n, split_values(n, 2, 4));
  SimConfig config;
  config.seed = 5;
  Simulator sim_a(std::move(a), std::make_shared<IdentityAdversary>(), config);
  Simulator sim_b(std::move(b), std::make_shared<IdentityAdversary>(), config);
  const auto ra = sim_a.run();
  const auto rb = sim_b.run();
  EXPECT_EQ(ra.decisions, rb.decisions);
  EXPECT_EQ(ra.rounds_executed, rb.rounds_executed);
}

TEST(AteTheorem, DecisionLockInAfterFirstDecision) {
  // Lemma 5 consequence: once some process decides v, later deciders also
  // decide v.  Run far past the first decision under corruption.
  const int n = 12;
  const int alpha = 2;
  const auto params = AteParams::canonical(n, alpha);
  RandomCorruptionConfig corruption;
  corruption.alpha = alpha;

  SimConfig config;
  config.max_rounds = 50;
  config.stop_when_all_decided = false;
  config.seed = 31337;
  GoodRoundConfig good;
  good.period = 7;
  Simulator sim(make_ate_instance(params, split_values(n, 3, 8)),
                std::make_shared<GoodRoundScheduler>(
                    std::make_shared<RandomCorruptionAdversary>(corruption), good),
                config);
  const auto result = sim.run();
  ASSERT_TRUE(result.all_decided);
  for (const auto& d : result.decisions) EXPECT_EQ(*d, *result.decisions[0]);
  // Every repeated decision of every process repeats its first value.
  EXPECT_TRUE(check_irrevocability(sim.processes()).holds);
}

}  // namespace
}  // namespace hoval
