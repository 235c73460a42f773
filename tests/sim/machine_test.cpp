#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include "adversary/corruption.hpp"
#include "adversary/wrappers.hpp"
#include "core/factories.hpp"
#include "predicates/liveness.hpp"
#include "predicates/safety.hpp"
#include "sim/initial_values.hpp"
#include "util/check.hpp"

namespace hoval {
namespace {

HoMachine canonical_machine(int n, int alpha, int good_round_period) {
  const auto params = AteParams::canonical(n, alpha);
  return HoMachine(
      [params](const std::vector<Value>& init) {
        return make_ate_instance(params, init);
      },
      [alpha, good_round_period] {
        RandomCorruptionConfig corruption;
        corruption.alpha = alpha;
        GoodRoundConfig good;
        good.period = good_round_period;
        return std::make_shared<GoodRoundScheduler>(
            std::make_shared<RandomCorruptionAdversary>(corruption), good);
      },
      {std::make_shared<PAlpha>(alpha),
       std::make_shared<PALive>(n, params.threshold_t, params.threshold_e,
                                alpha)});
}

TEST(HoMachine, SolveReportsEverything) {
  const auto machine = canonical_machine(9, 2, 5);
  SimConfig config;
  config.max_rounds = 40;
  config.seed = 3;
  const MachineReport report = machine.solve(distinct_values(9), config);

  EXPECT_TRUE(report.run.all_decided);
  EXPECT_TRUE(report.consensus.all_hold());
  EXPECT_TRUE(report.irrevocability.holds);
  ASSERT_EQ(report.predicate_verdicts.size(), 2u);
  EXPECT_TRUE(report.predicate_verdicts[0].holds);  // P_alpha
  EXPECT_TRUE(report.predicate_verdicts[1].holds);  // P^{A,live}
  EXPECT_TRUE(report.predicates_hold());
  EXPECT_TRUE(report.consistent_with_theorem());
}

TEST(HoMachine, ConsistencyIsVacuousOutsideThePredicate) {
  MachineReport report;
  PredicateVerdict failed;
  failed.holds = false;
  report.predicate_verdicts.push_back(failed);
  // Even with a (hypothetically) broken consensus clause, the theorem
  // promises nothing when P failed.
  report.consensus.agreement.holds = false;
  EXPECT_FALSE(report.predicates_hold());
  EXPECT_TRUE(report.consistent_with_theorem());
}

TEST(HoMachine, CampaignMergesPredicates) {
  const auto machine = canonical_machine(9, 2, 5);
  CampaignConfig config;
  config.runs = 15;
  config.sim.max_rounds = 40;
  config.base_seed = 77;
  // One extra predicate in the config; the machine appends its own two.
  config.predicates.push_back(std::make_shared<PBenign>());
  Executor executor(2);
  const auto result = machine.campaign(
      [](Rng& rng) { return random_values(9, 3, rng); }, config, executor);
  ASSERT_EQ(result.predicate_holds.size(), 3u);
  EXPECT_EQ(result.predicate_holds[0], 0);             // not benign
  EXPECT_EQ(result.predicate_holds[1], result.runs);   // P_alpha
  EXPECT_EQ(result.predicate_holds[2], result.runs);   // P^{A,live}
  EXPECT_TRUE(result.safety_clean());
  EXPECT_EQ(result.terminated, result.runs);
}

TEST(HoMachine, NullPartsRejected) {
  EXPECT_THROW(HoMachine(nullptr, [] { return nullptr; }, {}),
               PreconditionError);
  EXPECT_THROW(
      HoMachine([](const std::vector<Value>&) { return ProcessVector{}; },
                nullptr, {}),
      PreconditionError);
  EXPECT_THROW(
      HoMachine([](const std::vector<Value>&) { return ProcessVector{}; },
                [] { return std::make_shared<IdentityAdversary>(); },
                {nullptr}),
      PreconditionError);
}

TEST(HoMachine, SolveIsRepeatable) {
  const auto machine = canonical_machine(8, 1, 4);
  SimConfig config;
  config.max_rounds = 30;
  config.seed = 5;
  const auto a = machine.solve(split_values(8, 1, 2), config);
  const auto b = machine.solve(split_values(8, 1, 2), config);
  EXPECT_EQ(a.run.decisions, b.run.decisions);
  EXPECT_EQ(a.run.rounds_executed, b.run.rounds_executed);
}

}  // namespace
}  // namespace hoval
