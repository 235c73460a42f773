/// Parameterised end-to-end checks of Theorem 2: under P_alpha ∧ P^{U,safe}
/// (enforced by the clamp wrapper), U_{T,E,alpha} never violates
/// Agreement/Integrity — for alpha all the way up to just below n/2, twice
/// A_{T,E}'s tolerance; with P^{U,live} clean phases injected it terminates.

#include <gtest/gtest.h>

#include "adversary/corruption.hpp"
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

struct UteaCase {
  int n;
  int alpha;
};

std::string case_name(const testing::TestParamInfo<UteaCase>& info) {
  return "n" + std::to_string(info.param.n) + "_a" +
         std::to_string(info.param.alpha);
}

class UteaTheoremTest : public testing::TestWithParam<UteaCase> {};

/// Corruption at the P_alpha limit, then clamped so that P^{U,safe} holds:
/// |SHO(p,r)| > max(n + 2a - E - 1, T, a) and |AHO(p,r)| <= a.
AdversaryBuilder usafe_corruption(const UteaParams& params) {
  return [params] {
    RandomCorruptionConfig config;
    config.alpha = params.alpha;
    config.policy.style = CorruptionStyle::kRandomValue;
    const PUSafe bound(params.n, params.threshold_t, params.threshold_e,
                       params.alpha);
    return std::make_shared<SafetyClampAdversary>(
        std::make_shared<RandomCorruptionAdversary>(config), bound.bound(),
        params.alpha);
  };
}

TEST_P(UteaTheoremTest, SafetyHoldsUnderPAlphaAndPUSafe) {
  const auto [n, alpha] = GetParam();
  const auto params = UteaParams::canonical(n, alpha);
  ASSERT_TRUE(params.theorem2_conditions());

  CampaignConfig config;
  config.runs = 40;
  config.sim.max_rounds = 40;
  config.sim.stop_when_all_decided = false;
  config.base_seed = mix_seed(static_cast<std::uint64_t>(n),
                              static_cast<std::uint64_t>(alpha), 10);
  config.predicates.push_back(std::make_shared<PAlpha>(alpha));
  config.predicates.push_back(std::make_shared<PUSafe>(
      n, params.threshold_t, params.threshold_e, alpha));

  const auto result = run_via_pool(
      [n = n](Rng& rng) { return random_values(n, 3, rng); },
      [params](const std::vector<Value>& init) {
        return make_utea_instance(params, init);
      },
      usafe_corruption(params), config);

  EXPECT_TRUE(result.safety_clean())
      << params.to_string() << ": " << result.summary()
      << (result.violations.empty() ? "" : "\n  " + result.violations.front());
  // Both predicates hold by construction of the clamped adversary.
  EXPECT_EQ(result.predicate_holds[0], result.runs) << "P_alpha violated";
  EXPECT_EQ(result.predicate_holds[1], result.runs) << "P^{U,safe} violated";
}

TEST_P(UteaTheoremTest, IntegrityHoldsOnUnanimousStart) {
  const auto [n, alpha] = GetParam();
  const auto params = UteaParams::canonical(n, alpha);

  CampaignConfig config;
  config.runs = 25;
  config.sim.max_rounds = 40;
  config.sim.stop_when_all_decided = false;
  config.base_seed = mix_seed(static_cast<std::uint64_t>(n),
                              static_cast<std::uint64_t>(alpha), 11);

  const auto result = run_via_pool(
      [n = n](Rng&) { return unanimous_values(n, 4); },
      [params](const std::vector<Value>& init) {
        return make_utea_instance(params, init);
      },
      usafe_corruption(params), config);

  EXPECT_EQ(result.integrity_violations, 0) << result.summary();
  EXPECT_EQ(result.agreement_violations, 0) << result.summary();
}

TEST_P(UteaTheoremTest, TerminatesWithCleanPhases) {
  const auto [n, alpha] = GetParam();
  const auto params = UteaParams::canonical(n, alpha);

  CampaignConfig config;
  config.runs = 20;
  config.sim.max_rounds = 60;
  // Run to the horizon so the recorded prefix always contains a scheduled
  // clean phase (a run deciding earlier would otherwise lack a witness
  // for the eventual clause of P^{U,live}).
  config.sim.stop_when_all_decided = false;
  config.base_seed = mix_seed(static_cast<std::uint64_t>(n),
                              static_cast<std::uint64_t>(alpha), 12);
  config.predicates.push_back(std::make_shared<PULive>(
      n, params.threshold_t, params.threshold_e, alpha));

  const auto result = run_via_pool(
      [n = n](Rng& rng) { return random_values(n, 3, rng); },
      [params](const std::vector<Value>& init) {
        return make_utea_instance(params, init);
      },
      [&] {
        CleanPhaseConfig clean;
        clean.period_phases = 3;
        return std::make_shared<CleanPhaseScheduler>(
            usafe_corruption(params)(), clean);
      },
      config);

  EXPECT_TRUE(result.safety_clean()) << result.summary();
  EXPECT_EQ(result.terminated, result.runs) << result.summary();
  EXPECT_EQ(result.predicate_holds[0], result.runs) << "P^{U,live} violated";
  // Clean phases are 3, 6, ...: the decision lands by round 2*3+2 = 8.
  EXPECT_LE(result.last_decision_rounds.max(), 8.0) << result.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UteaTheoremTest,
    testing::Values(UteaCase{4, 1}, UteaCase{5, 2}, UteaCase{8, 3},
                    UteaCase{9, 4}, UteaCase{12, 5}, UteaCase{13, 6},
                    UteaCase{16, 7}, UteaCase{21, 10},
                    UteaCase{10, 0}),  // benign UniformVoting special case
    case_name);

TEST(UteaTheorem, ToleratesTwiceTheCorruptionOfA) {
  // The headline crossover: alpha = floor((n-1)/2) is far beyond A's n/4
  // wall but safe for U.
  const int n = 9;
  const int alpha = 4;  // > n/4 = 2.25, < n/2
  ASSERT_FALSE(AteParams::feasible(n, alpha).has_value());
  const auto params = UteaParams::canonical(n, alpha);
  ASSERT_TRUE(params.theorem2_conditions());

  CampaignConfig config;
  config.runs = 30;
  config.sim.max_rounds = 30;
  config.sim.stop_when_all_decided = false;
  config.base_seed = 2211;

  const auto result = run_via_pool(
      [](Rng& rng) { return random_values(9, 3, rng); },
      [params](const std::vector<Value>& init) {
        return make_utea_instance(params, init);
      },
      [&] {
        RandomCorruptionConfig corruption;
        corruption.alpha = alpha;
        const PUSafe bound(n, params.threshold_t, params.threshold_e, alpha);
        return std::make_shared<SafetyClampAdversary>(
            std::make_shared<RandomCorruptionAdversary>(corruption),
            bound.bound(), alpha);
      },
      config);
  EXPECT_TRUE(result.safety_clean()) << result.summary();
}

TEST(UteaTheorem, FaultFreeSplitDecidesInOnePhaseWhenMajorityExists) {
  // With faithful communication and a strict majority value, every process
  // votes it in phase 1 and decides at round 2.
  for (int n : {5, 7, 13}) {  // odd: the high camp has a strict majority
    auto processes =
        make_utea_instance(UteaParams::canonical(n, 0), split_values(n, 2, 9));
    Simulator sim(std::move(processes), std::make_shared<IdentityAdversary>(),
                  SimConfig{});
    const auto result = sim.run();
    EXPECT_TRUE(result.all_decided) << "n=" << n;
    EXPECT_EQ(result.last_decision_round, 2) << "n=" << n;
    for (const auto& d : result.decisions) EXPECT_EQ(*d, 9) << "n=" << n;
  }
}

TEST(UteaTheorem, FaultFreeEvenSplitFallsBackToDefaultInTwoPhases) {
  // A perfectly even split clears no strict majority: phase 1 ends with
  // '?' votes everywhere and the default-value rule (line 17) makes the
  // system unanimous on v0; phase 2 decides it.
  for (int n : {4, 12}) {
    auto params = UteaParams::canonical(n, 0);
    params.default_value = 42;
    auto processes = make_utea_instance(params, split_values(n, 2, 9));
    Simulator sim(std::move(processes), std::make_shared<IdentityAdversary>(),
                  SimConfig{});
    const auto result = sim.run();
    EXPECT_TRUE(result.all_decided) << "n=" << n;
    EXPECT_EQ(result.last_decision_round, 4) << "n=" << n;
    for (const auto& d : result.decisions) EXPECT_EQ(*d, 42) << "n=" << n;
  }
}

TEST(UteaTheorem, DefaultValueFallbackConverges) {
  // Heavy garbage corruption prevents any vote from forming; everyone
  // falls back to v0 at the end of each phase, after which unanimity makes
  // the system decide v0 as soon as the corruption stops (transient fault).
  const int n = 8;
  const int alpha = 3;  // >= n/4: enough to suppress votes (see Sec. 5.1)
  auto params = UteaParams::canonical(n, alpha);
  params.default_value = 0;

  RandomCorruptionConfig corruption;
  corruption.alpha = alpha;
  corruption.policy.style = CorruptionStyle::kGarbage;

  SimConfig config;
  config.max_rounds = 40;
  config.seed = 77;
  Simulator sim(make_utea_instance(params, split_values(n, 4, 9)),
                std::make_shared<TransientWindowAdversary>(
                    std::make_shared<RandomCorruptionAdversary>(corruption), 1, 10),
                config);
  const auto result = sim.run();
  EXPECT_TRUE(result.all_decided);
  for (const auto& d : result.decisions) EXPECT_EQ(*d, 0) << "default v0";
}

}  // namespace
}  // namespace hoval
