/// Parameterised sweeps for the baseline algorithms, pinning the
/// resilience shapes the comparison experiments (F3/E4) rely on.

#include <gtest/gtest.h>

#include "adversary/byzantine.hpp"
#include "adversary/omission.hpp"
#include "core/factories.hpp"
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

// ------------------------------------------------- PhaseKing resilience

struct KingCase {
  int n;
  int t;  ///< static fault degree injected AND assumed
};

std::string king_name(const testing::TestParamInfo<KingCase>& info) {
  return "n" + std::to_string(info.param.n) + "_t" + std::to_string(info.param.t);
}

class PhaseKingSweep : public testing::TestWithParam<KingCase> {};

TEST_P(PhaseKingSweep, SafeAndTimelyWithinResilience) {
  const auto [n, t] = GetParam();
  const PhaseKingParams params{n, t};
  ASSERT_TRUE(params.resilience_condition()) << "case must satisfy n > 4t";

  StaticByzantineConfig byz;
  byz.f = t;
  byz.mode = ByzantineMode::kEquivocate;

  CampaignConfig config;
  config.runs = 40;
  config.sim.max_rounds = params.rounds_to_decision() + 2;
  config.base_seed = mix_seed(static_cast<std::uint64_t>(n),
                              static_cast<std::uint64_t>(t), 0xC1);

  const auto result = run_via_pool(
      [n = n](Rng& rng) { return random_values(n, 3, rng); },
      [params](const std::vector<Value>& init) {
        return make_phase_king_instance(params, init);
      },
      [&] { return std::make_shared<StaticByzantineAdversary>(byz); }, config);

  EXPECT_TRUE(result.safety_clean()) << result.summary();
  EXPECT_EQ(result.terminated, result.runs) << result.summary();
  // The baseline is never fast: always exactly 2(t+1) rounds.
  EXPECT_DOUBLE_EQ(result.last_decision_rounds.min(),
                   params.rounds_to_decision());
  EXPECT_DOUBLE_EQ(result.last_decision_rounds.max(),
                   params.rounds_to_decision());
}

INSTANTIATE_TEST_SUITE_P(Sweep, PhaseKingSweep,
                         testing::Values(KingCase{5, 1}, KingCase{9, 2},
                                         KingCase{13, 3}, KingCase{17, 4},
                                         KingCase{21, 5}),
                         king_name);

TEST(PhaseKingSweep, BeyondResilienceViolationsAreConstructible) {
  // n = 8, t = 2 violates n > 4t: with two equivocating senders the
  // majority-tally argument loses its quorum intersection and some seeds
  // produce disagreement.
  const PhaseKingParams params{8, 2};
  ASSERT_FALSE(params.resilience_condition());

  StaticByzantineConfig byz;
  byz.f = 2;
  byz.mode = ByzantineMode::kEquivocate;
  byz.policy.pool_lo = 0;
  byz.policy.pool_hi = 2;

  CampaignConfig config;
  config.runs = 200;
  config.sim.max_rounds = params.rounds_to_decision() + 2;
  config.base_seed = 0xBAD;

  const auto result = run_via_pool(
      [](Rng& rng) { return random_values(8, 3, rng); },
      [params](const std::vector<Value>& init) {
        return make_phase_king_instance(params, init);
      },
      [&] { return std::make_shared<StaticByzantineAdversary>(byz); }, config);

  EXPECT_GT(result.agreement_violations, 0)
      << "expected the n > 4t bound to be tight in shape: "
      << result.summary();
}

// -------------------------------------- UniformVoting = U at alpha = 0

TEST(UniformVotingEquivalence, FactoryMatchesCanonicalAlphaZero) {
  const int n = 7;
  auto via_factory = make_uniform_voting_instance(n, split_values(n, 1, 5));
  auto via_params =
      make_utea_instance(UteaParams::canonical(n, 0), split_values(n, 1, 5));

  SimConfig config;
  config.seed = 13;
  config.max_rounds = 20;
  Simulator sim_a(std::move(via_factory), std::make_shared<IdentityAdversary>(),
                  config);
  Simulator sim_b(std::move(via_params), std::make_shared<IdentityAdversary>(),
                  config);
  const auto a = sim_a.run();
  const auto b = sim_b.run();
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
}

TEST(UniformVotingEquivalence, BenignUniformVotingNeverVotesWrong) {
  // Benign UniformVoting property inherited by U: under pure omissions a
  // true vote certifies a genuine majority, so Agreement holds under any
  // loss pattern.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SimConfig config;
    config.max_rounds = 60;
    config.stop_when_all_decided = false;
    config.seed = seed;
    Simulator sim(make_uniform_voting_instance(6, distinct_values(6)),
                  std::make_shared<RandomOmissionAdversary>(0.3), config);
    const auto result = sim.run();
    EXPECT_TRUE(check_agreement(result).holds) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hoval
