/// The migration contract for the bench harnesses that moved from
/// hand-rolled builder loops onto SweepSpec grids (bench_fig2_ulive,
/// bench_resilience_utea, bench_ablation_thresholds): for representative
/// grid points, the registry-resolved scenario must produce a
/// CampaignResult bit-identical to the original hand-built builders —
/// same tallies, same samples in the same order, same summary text.

#include <gtest/gtest.h>

#include <memory>

#include "adversary/corruption.hpp"
#include "adversary/lock_in.hpp"
#include "adversary/split_vote.hpp"
#include "adversary/wrappers.hpp"
#include "core/factories.hpp"
#include "core/params.hpp"
#include "predicates/safety.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "sim/initial_values.hpp"

namespace hoval {
namespace {

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.integrity_violations, b.integrity_violations);
  EXPECT_EQ(a.irrevocability_violations, b.irrevocability_violations);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.predicate_holds, b.predicate_holds);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.last_decision_rounds.samples(), b.last_decision_rounds.samples());
  EXPECT_EQ(a.first_decision_rounds.samples(),
            b.first_decision_rounds.samples());
  EXPECT_EQ(a.summary(), b.summary());
}

/// The pool every campaign in this file runs on.
Executor& pool() {
  static Executor executor(2);
  return executor;
}

/// Runs one hand-built campaign on pool().
CampaignResult run_via_pool(const ValueGenerator& values,
                            const InstanceBuilder& instance,
                            const AdversaryBuilder& adversary,
                            const CampaignConfig& config) {
  return pool().submit(values, instance, adversary, config).take();
}

ValueGenerator random_of(int n) {
  return [n](Rng& rng) { return random_values(n, 3, rng); };
}

/// bench_fig2_ulive regime (b), grid point gap = 4, |Pi0| = 10: garbage
/// corruption with sporadic clean phases.
TEST(BenchMigration, Fig2UliveGridPointMatchesHandBuilt) {
  const int gap = 4;
  const int pi0 = 10;
  const auto params = UteaParams::canonical(12, 3);

  CampaignConfig config;
  config.runs = 150;
  config.sim.max_rounds = 6 * gap + 30;
  config.base_seed =
      derived_seed(0xF26B, static_cast<std::uint64_t>(gap * 100 + pi0));
  const auto hand_built = run_via_pool(
      random_of(params.n),
      [params](const std::vector<Value>& init) {
        return make_utea_instance(params, init);
      },
      [&] {
        RandomCorruptionConfig corruption;
        corruption.alpha = params.alpha;
        corruption.policy.style = CorruptionStyle::kGarbage;
        CleanPhaseConfig clean;
        clean.period_phases = gap;
        clean.pi0_size = pi0;
        return std::make_shared<CleanPhaseScheduler>(
            std::make_shared<RandomCorruptionAdversary>(corruption), clean);
      },
      config);

  ScenarioSpec spec;
  spec.algorithm = component("utea", {{"n", params.n}, {"alpha", params.alpha}});
  spec.adversaries = {
      component("corrupt", {{"alpha", params.alpha}, {"style", "garbage"}}),
      component("clean-phases", {{"period", gap}, {"pi0_size", pi0}})};
  spec.values = component("random", {{"distinct", 3}});
  spec.campaign.runs = config.runs;
  spec.campaign.rounds = config.sim.max_rounds;
  spec.campaign.seed = config.base_seed;
  expect_identical(hand_built, run_scenario(spec, pool()));
}

/// bench_resilience_utea grid point (n, alpha) = (12, 3): the clamped
/// safety campaign and the clean-phase liveness campaign.
TEST(BenchMigration, ResilienceUteaGridPointMatchesHandBuilt) {
  const auto params = *UteaParams::feasible(12, 3);
  const std::uint64_t seed = mix_seed(12, 3, 99);

  const auto usafe = [&]() -> std::shared_ptr<Adversary> {
    RandomCorruptionConfig corruption;
    corruption.alpha = params.alpha;
    const PUSafe bound(params.n, params.threshold_t, params.threshold_e,
                       params.alpha);
    return std::make_shared<SafetyClampAdversary>(
        std::make_shared<RandomCorruptionAdversary>(corruption), bound.bound(),
        params.alpha);
  };
  const auto utea_instance = [params](const std::vector<Value>& init) {
    return make_utea_instance(params, init);
  };

  CampaignConfig safety;
  safety.runs = 60;
  safety.sim.max_rounds = 30;
  safety.sim.stop_when_all_decided = false;
  safety.base_seed = seed;
  const auto hand_safety =
      run_via_pool(random_of(params.n), utea_instance, usafe, safety);

  ScenarioSpec safety_spec;
  safety_spec.algorithm =
      component("utea", {{"n", params.n}, {"alpha", params.alpha}});
  safety_spec.adversaries = {component("corrupt", {{"alpha", params.alpha}}),
                             component("usafe-clamp")};
  safety_spec.values = component("random", {{"distinct", 3}});
  safety_spec.campaign.runs = 60;
  safety_spec.campaign.rounds = 30;
  safety_spec.campaign.stop_when_all_decided = false;
  safety_spec.campaign.seed = seed;
  expect_identical(hand_safety, run_scenario(safety_spec, pool()));

  CampaignConfig live;
  live.runs = 40;
  live.sim.max_rounds = 60;
  live.base_seed = derived_seed(seed, 1);
  const auto hand_live = run_via_pool(
      random_of(params.n), utea_instance,
      [&] {
        CleanPhaseConfig clean;
        clean.period_phases = 3;
        return std::make_shared<CleanPhaseScheduler>(usafe(), clean);
      },
      live);

  ScenarioSpec live_spec = safety_spec;
  live_spec.adversaries.push_back(component("clean-phases", {{"period", 3}}));
  live_spec.campaign.runs = 40;
  live_spec.campaign.rounds = 60;
  live_spec.campaign.stop_when_all_decided = true;
  live_spec.campaign.seed = derived_seed(seed, 1);
  expect_identical(hand_live, run_scenario(live_spec, pool()));
}

/// bench_ablation_thresholds choice (E, T) = (8.5, 11.5): the liveness
/// campaign, the split attack and the lock-in attack (this choice is in
/// the lock-in script's feasibility window).
TEST(BenchMigration, AblationThresholdsChoiceMatchesHandBuilt) {
  const int n = 12;
  const int alpha = 2;
  const double e = 8.5;
  const double t = 11.5;
  const AteParams params{n, t, e, static_cast<double>(alpha)};
  const std::uint64_t seed = mix_seed(static_cast<std::uint64_t>(e * 100),
                                      static_cast<std::uint64_t>(t * 100));
  const auto ate_instance = [params](const std::vector<Value>& init) {
    return make_ate_instance(params, init);
  };
  const auto spec_base = [&] {
    ScenarioSpec spec;
    spec.algorithm = component(
        "ate", {{"n", n}, {"alpha", alpha}, {"t", t}, {"e", e}});
    return spec;
  };

  // Liveness: corruption + good rounds every 6.
  CampaignConfig live;
  live.runs = 80;
  live.sim.max_rounds = 60;
  live.base_seed = seed;
  const auto hand_live = run_via_pool(
      random_of(n), ate_instance,
      [&] {
        RandomCorruptionConfig corruption;
        corruption.alpha = alpha;
        GoodRoundConfig good;
        good.period = 6;
        return std::make_shared<GoodRoundScheduler>(
            std::make_shared<RandomCorruptionAdversary>(corruption), good);
      },
      live);
  ScenarioSpec live_spec = spec_base();
  live_spec.adversaries = {component("corrupt", {{"alpha", alpha}}),
                           component("good-rounds", {{"period", 6}})};
  live_spec.values = component("random", {{"distinct", 3}});
  live_spec.campaign.runs = 80;
  live_spec.campaign.rounds = 60;
  live_spec.campaign.seed = seed;
  expect_identical(hand_live, run_scenario(live_spec, pool()));

  // The same-round split attack.
  CampaignConfig attack;
  attack.runs = 80;
  attack.sim.max_rounds = 20;
  attack.base_seed = derived_seed(seed, 1);
  const auto hand_attack = run_via_pool(
      [](Rng&) { return split_values(12, 1, 9); }, ate_instance,
      [&] {
        SplitVoteConfig split;
        split.alpha = alpha;
        split.low_value = 1;
        split.high_value = 9;
        return std::make_shared<SplitVoteAdversary>(split);
      },
      attack);
  ScenarioSpec attack_spec = spec_base();
  attack_spec.adversaries = {component(
      "split", {{"alpha", alpha}, {"low_value", 1}, {"high_value", 9}})};
  attack_spec.values = component("split", {{"lo", 1}, {"hi", 9}});
  attack_spec.campaign.runs = 80;
  attack_spec.campaign.rounds = 20;
  attack_spec.campaign.seed = derived_seed(seed, 1);
  expect_identical(hand_attack, run_scenario(attack_spec, pool()));

  // The cross-round lock-in attack (the script applies at this choice).
  ASSERT_TRUE(lock_in_feasible(n, t, e, alpha));
  CampaignConfig lock;
  lock.runs = 80;
  lock.sim.max_rounds = 10;
  lock.sim.stop_when_all_decided = false;
  lock.base_seed = derived_seed(seed, 2);
  const auto hand_lock = run_via_pool(
      [](Rng&) { return split_values(12, 0, 1); }, ate_instance,
      [&] {
        LockInConfig config;
        config.alpha = alpha;
        config.threshold_e = e;
        return std::make_shared<LockInAdversary>(config);
      },
      lock);
  ScenarioSpec lock_spec = spec_base();
  lock_spec.adversaries = {component("lockin", {{"alpha", alpha}})};
  lock_spec.values = component("split", {{"lo", 0}, {"hi", 1}});
  lock_spec.campaign.runs = 80;
  lock_spec.campaign.rounds = 10;
  lock_spec.campaign.stop_when_all_decided = false;
  lock_spec.campaign.seed = derived_seed(seed, 2);
  expect_identical(hand_lock, run_scenario(lock_spec, pool()));
}

}  // namespace
}  // namespace hoval
