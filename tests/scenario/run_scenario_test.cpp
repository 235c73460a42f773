#include "scenario/run.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "adversary/corruption.hpp"
#include "adversary/split_vote.hpp"
#include "adversary/wrappers.hpp"
#include "core/factories.hpp"
#include "predicates/safety.hpp"
#include "scenario/spec.hpp"
#include "sim/initial_values.hpp"

namespace hoval {
namespace {

/// Full-field equality: run_scenario must be *bit-identical* to submitting
/// the hand-built builders, down to sample vectors and diagnostic
/// strings.
void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.integrity_violations, b.integrity_violations);
  EXPECT_EQ(a.irrevocability_violations, b.irrevocability_violations);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.last_decision_rounds.samples(), b.last_decision_rounds.samples());
  EXPECT_EQ(a.first_decision_rounds.samples(), b.first_decision_rounds.samples());
  EXPECT_EQ(a.predicate_holds, b.predicate_holds);
  EXPECT_EQ(a.predicate_names, b.predicate_names);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.cancelled, b.cancelled);
}

// --- shape 1: the migrated bench_fig1_alive campaign -----------------------

ScenarioSpec fig1_spec() {
  ScenarioSpec spec;
  spec.algorithm = component("ate", {{"n", 12}, {"alpha", 2}});
  spec.values = component("random", {{"distinct", 3}});
  spec.adversaries = {component("corrupt", {{"alpha", 2}}),
                      component("good-rounds", {{"period", 5}, {"minimal", true}})};
  spec.campaign.runs = 40;
  spec.campaign.rounds = 35;
  spec.campaign.seed = 0xF16A + 5;
  return spec;
}

CampaignResult fig1_hand_built(Executor& executor) {
  // Verbatim the pre-refactor builder lambdas of bench_fig1_alive.
  const int n = 12;
  const int alpha = 2;
  const auto params = AteParams::canonical(n, alpha);
  CampaignConfig config;
  config.runs = 40;
  config.sim.max_rounds = 35;
  config.base_seed = 0xF16A + 5;
  return executor.submit(
      [n](Rng& rng) { return random_values(n, 3, rng); },
      [params](const std::vector<Value>& init) {
        return make_ate_instance(params, init);
      },
      [&] {
        RandomCorruptionConfig corruption;
        corruption.alpha = alpha;
        GoodRoundConfig good;
        good.period = 5;
        good.minimal = true;
        good.pi1_size = static_cast<int>(params.threshold_e - alpha) + 1;
        good.pi2_size = static_cast<int>(params.threshold_t) + 1;
        return std::make_shared<GoodRoundScheduler>(
            std::make_shared<RandomCorruptionAdversary>(corruption), good);
      },
      config)
      .take();
}

// --- shape 2: the migrated bench_table1 U safety row (clamp + predicates) --

ScenarioSpec utea_spec() {
  ScenarioSpec spec;
  spec.algorithm = component("utea", {{"n", 9}, {"alpha", 4}});
  spec.values = component("random", {{"distinct", 3}});
  spec.adversaries = {component("corrupt", {{"alpha", 4}}),
                      component("usafe-clamp")};
  spec.predicates = {component("p-alpha"), component("p-usafe")};
  spec.campaign.runs = 50;
  spec.campaign.rounds = 30;
  spec.campaign.stop_when_all_decided = false;
  spec.campaign.seed = 2001;
  return spec;
}

CampaignResult utea_hand_built(Executor& executor) {
  const int n = 9;
  const int alpha = 4;
  const auto params = UteaParams::canonical(n, alpha);
  CampaignConfig config;
  config.runs = 50;
  config.sim.max_rounds = 30;
  config.sim.stop_when_all_decided = false;
  config.base_seed = 2001;
  config.predicates.push_back(std::make_shared<PAlpha>(alpha));
  config.predicates.push_back(std::make_shared<PUSafe>(
      n, params.threshold_t, params.threshold_e, alpha));
  return executor.submit(
      [n](Rng& rng) { return random_values(n, 3, rng); },
      [params](const std::vector<Value>& init) {
        return make_utea_instance(params, init);
      },
      [params] {
        RandomCorruptionConfig corruption;
        corruption.alpha = params.alpha;
        const PUSafe bound(params.n, params.threshold_t, params.threshold_e,
                           params.alpha);
        return std::make_shared<SafetyClampAdversary>(
            std::make_shared<RandomCorruptionAdversary>(corruption),
            bound.bound(), params.alpha);
      },
      config)
      .take();
}

// --- shape 3: a violation-producing negative campaign ----------------------

ScenarioSpec negative_spec() {
  ScenarioSpec spec;
  spec.algorithm =
      component("ate", {{"n", 8}, {"alpha", 2}, {"t", 6.0}, {"e", 5.0}});
  spec.values = component("split", {{"lo", 1}, {"hi", 9}});
  spec.adversaries = {
      component("split", {{"alpha", 2}, {"low_value", 1}, {"high_value", 9}})};
  spec.campaign.runs = 60;
  spec.campaign.rounds = 10;
  spec.campaign.seed = 3001;
  return spec;
}

CampaignResult negative_hand_built(Executor& executor) {
  const int n = 8;
  const int alpha = 2;
  const AteParams bad{n, 6.0, 5.0, static_cast<double>(alpha)};
  CampaignConfig config;
  config.runs = 60;
  config.sim.max_rounds = 10;
  config.base_seed = 3001;
  return executor.submit(
      [n](Rng&) { return split_values(n, 1, 9); },
      [bad](const std::vector<Value>& init) {
        return make_ate_instance(bad, init);
      },
      [alpha] {
        SplitVoteConfig split;
        split.alpha = alpha;
        split.low_value = 1;
        split.high_value = 9;
        return std::make_shared<SplitVoteAdversary>(split);
      },
      config)
      .take();
}

class RunScenarioBitIdentical : public ::testing::TestWithParam<int> {};

TEST_P(RunScenarioBitIdentical, Fig1GoodRounds) {
  Executor executor(GetParam());
  expect_identical(run_scenario(fig1_spec(), executor),
                   fig1_hand_built(executor));
}

TEST_P(RunScenarioBitIdentical, UteaClampWithPredicates) {
  Executor executor(GetParam());
  const CampaignResult scenario = run_scenario(utea_spec(), executor);
  expect_identical(scenario, utea_hand_built(executor));
  // The predicates actually held (the clamp enforces them by construction).
  ASSERT_EQ(scenario.predicate_holds.size(), 2u);
  EXPECT_EQ(scenario.predicate_holds[0], scenario.runs);
  EXPECT_EQ(scenario.predicate_holds[1], scenario.runs);
}

TEST_P(RunScenarioBitIdentical, NegativeSplitVoteViolations) {
  Executor executor(GetParam());
  const CampaignResult scenario = run_scenario(negative_spec(), executor);
  expect_identical(scenario, negative_hand_built(executor));
  // The attack really fires, so violation *strings* were compared above.
  EXPECT_GT(scenario.agreement_violations, 0);
  EXPECT_FALSE(scenario.violations.empty());
}

INSTANTIATE_TEST_SUITE_P(Threads, RunScenarioBitIdentical,
                         ::testing::Values(1, 4));

// --- summary / predicate names ---------------------------------------------

TEST(RunScenario, SummaryNamesPredicates) {
  Executor executor(1);
  const CampaignResult result = run_scenario(utea_spec(), executor);
  ASSERT_EQ(result.predicate_names.size(), 2u);
  EXPECT_EQ(result.predicate_names[0], std::make_shared<PAlpha>(4)->name());
  const std::string summary = result.summary();
  EXPECT_NE(summary.find(result.predicate_names[0]), std::string::npos)
      << summary;
  EXPECT_NE(summary.find(result.predicate_names[1]), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("predicates:"), std::string::npos) << summary;
}

// --- shared executor --------------------------------------------------------

TEST(RunScenario, OnePoolServesEveryShapeBitIdentically) {
  // One persistent pool serves all three scenario shapes back to back;
  // every result must match the same builders alone on a fresh serial
  // pool, down to the diagnostic strings.
  for (const int pool_threads : {1, 4}) {
    Executor executor(pool_threads);
    Executor serial(1);
    expect_identical(run_scenario(fig1_spec(), executor),
                     fig1_hand_built(serial));
    expect_identical(run_scenario(utea_spec(), executor),
                     utea_hand_built(serial));
    expect_identical(run_scenario(negative_spec(), executor),
                     negative_hand_built(serial));
  }
}

// --- sweeps ----------------------------------------------------------------

TEST(RunScenario, SweepRunsOneCampaignPerPoint) {
  SweepSpec sweep;
  sweep.base = fig1_spec();
  sweep.base.campaign.runs = 10;
  sweep.axes.push_back(
      SweepAxis::single("algorithm.params.alpha", {Json(0), Json(1), Json(2)}));
  sweep.reseed_per_point = true;
  Executor executor(2);
  const auto results = run_sweep(sweep, executor);
  ASSERT_EQ(results.size(), 3u);
  for (const CampaignResult& result : results) {
    EXPECT_EQ(result.runs, 10);
    EXPECT_TRUE(result.safety_clean());
  }
  // Each point is its own campaign with its own derived seed: the grid
  // point at alpha=2 must match a direct run of the same spec.
  ScenarioSpec last = fig1_spec();
  last.campaign.runs = 10;
  last.campaign.seed = derived_seed(sweep.base.campaign.seed, 2);
  expect_identical(results[2], run_scenario(last, executor));
}

TEST(RunScenario, SweepFailsBeforeRunningOnBadSubstitution) {
  SweepSpec sweep;
  sweep.base = fig1_spec();
  // Substituting a negative run count must fail at resolve time — for
  // *every* point, before any campaign runs.
  sweep.axes.push_back(SweepAxis::single("campaign.runs", {Json(10), Json(-1)}));
  Executor executor(1);
  EXPECT_THROW(run_sweep(sweep, executor), ScenarioError);
}

TEST(RunScenario, KeepTracesKnobReachesTheExecutor) {
  ScenarioSpec spec;
  spec.algorithm = component("otr", {{"n", 9}});
  spec.values = component("unanimous", {{"value", 3}});
  spec.campaign.runs = 4;
  spec.campaign.rounds = 10;
  spec.campaign.keep_traces = TraceRetention::kAll;
  EXPECT_EQ(resolve_scenario(spec).config.keep_traces, TraceRetention::kAll);
  Executor executor(1);
  const CampaignResult result = run_scenario(spec, executor);
  ASSERT_EQ(result.traces.size(), 4u);
  EXPECT_EQ(result.traces[0].trace.universe_size(), 9);
}

TEST(RunScenario, EmptyAdversaryStackIsFaithful) {
  ScenarioSpec spec;
  spec.algorithm = component("otr", {{"n", 9}});
  spec.values = component("unanimous", {{"value", 3}});
  spec.campaign.runs = 5;
  spec.campaign.rounds = 10;
  Executor executor(1);
  const CampaignResult result = run_scenario(spec, executor);
  EXPECT_TRUE(result.safety_clean());
  EXPECT_EQ(result.terminated, result.runs);
}

}  // namespace
}  // namespace hoval
