#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include "sim/executor.hpp"

#include "adversary/corruption.hpp"
#include "core/factories.hpp"
#include "predicates/safety.hpp"
#include "sim/initial_values.hpp"
#include "util/check.hpp"

namespace hoval {
namespace {

CampaignConfig small_campaign(int runs = 20) {
  CampaignConfig config;
  config.runs = runs;
  config.sim.max_rounds = 60;
  config.base_seed = 7;
  return config;
}

ValueGenerator random_of(int n, int distinct) {
  return [n, distinct](Rng& rng) { return random_values(n, distinct, rng); };
}

InstanceBuilder ate_instance(const AteParams& params) {
  return [params](const std::vector<Value>& initial) {
    return make_ate_instance(params, initial);
  };
}

AdversaryBuilder corruption_of(int alpha) {
  return [alpha] {
    RandomCorruptionConfig config;
    config.alpha = alpha;
    return std::make_shared<RandomCorruptionAdversary>(config);
  };
}

AdversaryBuilder identity() {
  return [] { return std::make_shared<IdentityAdversary>(); };
}

/// Runs one campaign on a pool shared by every test in this file.
CampaignResult run_via_pool(const ValueGenerator& values,
                            const InstanceBuilder& instance,
                            const AdversaryBuilder& adversary,
                            const CampaignConfig& config) {
  static Executor executor;
  return executor.submit(values, instance, adversary, config).take();
}

TEST(Campaign, FaultFreeRunsAllSucceed) {
  const auto result = run_via_pool(random_of(6, 3), ate_instance(AteParams::one_third_rule(6)),
                                   identity(), small_campaign());
  EXPECT_EQ(result.runs, 20);
  EXPECT_TRUE(result.safety_clean());
  EXPECT_EQ(result.terminated, 20);
  EXPECT_DOUBLE_EQ(result.termination_rate(), 1.0);
  EXPECT_DOUBLE_EQ(result.agreement_rate(), 1.0);
  // Fault-free OneThirdRule decides within two rounds.
  EXPECT_LE(result.last_decision_rounds.max(), 2.0);
  EXPECT_TRUE(result.violations.empty());
}

TEST(Campaign, PredicatesEvaluatedPerRun) {
  auto config = small_campaign(10);
  config.predicates.push_back(std::make_shared<PAlpha>(2));
  config.predicates.push_back(std::make_shared<PAlpha>(1));
  config.predicates.push_back(std::make_shared<PBenign>());
  const auto result =
      run_via_pool(random_of(9, 2), ate_instance(AteParams::canonical(9, 2)),
                   corruption_of(2), config);
  ASSERT_EQ(result.predicate_holds.size(), 3u);
  EXPECT_EQ(result.predicate_holds[0], 10);  // alpha=2 holds by construction
  EXPECT_EQ(result.predicate_holds[1], 0);   // always_max corrupts exactly 2
  EXPECT_EQ(result.predicate_holds[2], 0);   // not benign
}

TEST(Campaign, DeterministicGivenBaseSeed) {
  const auto a = run_via_pool(random_of(8, 3), ate_instance(AteParams::canonical(8, 1)),
                              corruption_of(1), small_campaign());
  const auto b = run_via_pool(random_of(8, 3), ate_instance(AteParams::canonical(8, 1)),
                              corruption_of(1), small_campaign());
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  if (!a.last_decision_rounds.empty()) {
    EXPECT_DOUBLE_EQ(a.last_decision_rounds.mean(), b.last_decision_rounds.mean());
  }
}

TEST(Campaign, RecordsViolationsWithCap) {
  // Thresholds violating Theorem 1 (E far below n/2 + alpha) under a
  // P_alpha-compliant adversary cannot guarantee agreement; use the split
  // attacker indirectly via an extreme corruption to at least exercise
  // the recording plumbing: integrity violations with unanimous inputs
  // and E < alpha are constructible.
  const AteParams bad{6, /*T=*/0.5, /*E=*/1.0, /*alpha=*/6};
  RandomCorruptionConfig corrupt_config;
  corrupt_config.alpha = 6;
  corrupt_config.policy.style = CorruptionStyle::kFixedValue;
  corrupt_config.policy.fixed_value = 999;

  auto config = small_campaign(10);
  config.max_recorded_violations = 3;
  const auto result = run_via_pool(
      [](Rng&) { return unanimous_values(6, 1); }, ate_instance(bad),
      [&] { return std::make_shared<RandomCorruptionAdversary>(corrupt_config); },
      config);
  EXPECT_GT(result.integrity_violations, 0);
  EXPECT_LE(result.violations.size(), 3u);
  EXPECT_FALSE(result.safety_clean());
}

TEST(Campaign, SummaryMentionsCounts) {
  const auto result =
      run_via_pool(random_of(4, 2), ate_instance(AteParams::one_third_rule(4)),
                   identity(), small_campaign(5));
  const auto s = result.summary();
  EXPECT_NE(s.find("5 runs"), std::string::npos);
  EXPECT_NE(s.find("agreement ok"), std::string::npos);
}

TEST(Campaign, SummaryHandlesEmptyResult) {
  // A default-constructed result (0 runs) must not divide by zero or
  // pretend statistics exist.
  const CampaignResult empty;
  EXPECT_EQ(empty.summary(), "empty campaign (0 runs)");
}

TEST(Campaign, SummaryHandlesNothingTerminated) {
  CampaignResult result;
  result.runs = 12;
  const auto s = result.summary();
  EXPECT_NE(s.find("12 runs"), std::string::npos);
  EXPECT_NE(s.find("none terminated"), std::string::npos);
  EXPECT_EQ(s.find("decided by round"), std::string::npos);
}

TEST(Campaign, SummaryMarksCancelledCampaigns) {
  CampaignResult result;
  result.runs = 3;
  result.cancelled = true;
  EXPECT_NE(result.summary().find("[cancelled]"), std::string::npos);
}

TEST(Campaign, RatesDivideByRunsExecutedNotRequested) {
  // An early-stopped adaptive campaign executed fewer runs than requested;
  // every rate (and every "x/y" in the summary) must divide by the runs
  // that actually happened, or the report understates them 4x here.
  CampaignResult result;
  result.runs = 50;
  result.runs_requested = 200;
  result.terminated = 25;
  result.agreement_violations = 5;
  result.predicate_holds = {40};
  result.predicate_names = {"p-alpha"};
  result.ci_confidence = 0.95;
  result.stopped_early = true;
  result.predicate_intervals = {wilson_interval(40, 50, 0.95)};

  EXPECT_DOUBLE_EQ(result.termination_rate(), 0.5);
  EXPECT_DOUBLE_EQ(result.agreement_rate(), 0.9);
  const auto s = result.summary();
  EXPECT_NE(s.find("50/200 runs (adaptive, stopped early)"), std::string::npos);
  EXPECT_NE(s.find("terminated 50.0%"), std::string::npos);
  EXPECT_NE(s.find("p-alpha 40/50"), std::string::npos);
  EXPECT_EQ(s.find("40/200"), std::string::npos);
}

TEST(Campaign, FixedBudgetSummaryUnchangedByNewFields) {
  // The classic rendering is a stability contract: fixed-budget campaigns
  // must summarise exactly as they did before adaptive sizing existed.
  CampaignResult result;
  result.runs = 12;
  result.runs_requested = 12;
  result.terminated = 12;
  result.last_decision_rounds.add(4.0);
  result.predicate_holds = {12};
  result.predicate_names = {"p-alpha"};
  EXPECT_EQ(result.summary(),
            "12 runs: agreement ok, integrity ok, terminated 100.0%, "
            "decided by round 4.00 (median 4.0, max 4), predicates: "
            "p-alpha 12/12");
}

TEST(Campaign, RejectsEmptyConfig) {
  CampaignConfig config;
  config.runs = 0;
  EXPECT_THROW(run_via_pool(random_of(4, 2),
                            ate_instance(AteParams::one_third_rule(4)),
                            identity(), config),
               PreconditionError);
}

TEST(InitialValues, Generators) {
  EXPECT_EQ(unanimous_values(3, 9), (std::vector<Value>{9, 9, 9}));
  EXPECT_EQ(split_values(5, 0, 1), (std::vector<Value>{0, 0, 1, 1, 1}));
  EXPECT_EQ(distinct_values(3), (std::vector<Value>{0, 1, 2}));
  Rng rng(4);
  const auto random = random_values(100, 3, rng);
  EXPECT_EQ(random.size(), 100u);
  for (Value v : random) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 3);
  }
  EXPECT_THROW(unanimous_values(0, 1), PreconditionError);
}

}  // namespace
}  // namespace hoval
