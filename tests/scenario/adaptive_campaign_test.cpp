/// The acceptance contract of adaptive campaign sizing, end to end on the
/// declarative layer: an adaptive sweep over the checked-in
/// examples/scenarios/sweep_ate_alpha.json executes measurably fewer runs
/// than the fixed-budget sweep, every per-predicate Wilson interval is at
/// least as tight as ci_epsilon, and fixed-budget results stay
/// bit-identical at any thread count (adaptive sizing must be invisible
/// until switched on).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "scenario/run.hpp"
#include "scenario/spec.hpp"

namespace hoval {
namespace {

std::string read_corpus_file(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(HOVAL_SOURCE_DIR) / "examples" / "scenarios" / name;
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.runs_requested, b.runs_requested);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.integrity_violations, b.integrity_violations);
  EXPECT_EQ(a.irrevocability_violations, b.irrevocability_violations);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.predicate_holds, b.predicate_holds);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.last_decision_rounds.samples(), b.last_decision_rounds.samples());
  EXPECT_EQ(a.first_decision_rounds.samples(),
            b.first_decision_rounds.samples());
  EXPECT_EQ(a.stopped_early, b.stopped_early);
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(AdaptiveSweep, SpendsFewerRunsThanFixedBudgetAtConvergedIntervals) {
  constexpr double kEpsilon = 0.05;
  SweepSpec sweep =
      SweepSpec::from_json_text(read_corpus_file("sweep_ate_alpha.json"));
  // Give the stopping rule headroom: the checked-in document's budget is
  // sized for the CI smoke loop, not for demonstrating convergence.
  sweep.base.campaign.runs = 400;

  Executor executor(2);
  const std::vector<CampaignResult> fixed = run_sweep(sweep, executor);

  SweepSpec adaptive = sweep;
  adaptive.base.campaign.adaptive.enabled = true;
  adaptive.base.campaign.adaptive.min_runs = 50;
  adaptive.base.campaign.adaptive.ci_epsilon = kEpsilon;
  const std::vector<CampaignResult> results = run_sweep(adaptive, executor);

  ASSERT_EQ(results.size(), fixed.size());
  long long fixed_runs = 0;
  long long adaptive_runs = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    fixed_runs += fixed[i].runs;
    adaptive_runs += results[i].runs;
    EXPECT_EQ(results[i].runs_requested, 400);
    // Every per-predicate Wilson interval converged to the target width.
    ASSERT_EQ(results[i].predicate_intervals.size(),
              results[i].predicate_holds.size());
    for (const ConfidenceInterval& interval : results[i].predicate_intervals)
      EXPECT_LE(interval.half_width(), kEpsilon);
    // Early stopping must not change what the estimate *is*, only how
    // precisely it was pinned down: the adaptive hold rate lies inside
    // its own interval and brackets the fixed-budget rate.
    for (std::size_t p = 0; p < results[i].predicate_holds.size(); ++p) {
      const double fixed_rate =
          static_cast<double>(fixed[i].predicate_holds[p]) / fixed[i].runs;
      EXPECT_GE(fixed_rate, results[i].predicate_intervals[p].lower - 1e-12);
      EXPECT_LE(fixed_rate, results[i].predicate_intervals[p].upper + 1e-12);
    }
  }
  // "Measurably fewer": this corpus converges at a small fraction of the
  // fixed budget; half is a very conservative bar.
  EXPECT_LT(adaptive_runs, fixed_runs / 2);
}

TEST(AdaptiveSweep, FixedBudgetResultsBitIdenticalAtAnyThreadCount) {
  SweepSpec sweep =
      SweepSpec::from_json_text(read_corpus_file("sweep_ate_alpha.json"));
  Executor one(1);
  const std::vector<CampaignResult> serial = run_sweep(sweep, one);
  Executor four(4);
  const std::vector<CampaignResult> parallel = run_sweep(sweep, four);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    expect_identical(serial[i], parallel[i]);
}

TEST(AdaptiveSweep, AdaptiveResultsBitIdenticalAtAnyThreadCount) {
  SweepSpec sweep =
      SweepSpec::from_json_text(read_corpus_file("sweep_ate_alpha.json"));
  sweep.base.campaign.runs = 400;
  sweep.base.campaign.adaptive.enabled = true;
  sweep.base.campaign.adaptive.min_runs = 50;
  sweep.base.campaign.adaptive.ci_epsilon = 0.05;

  Executor one(1);
  const std::vector<CampaignResult> serial = run_sweep(sweep, one);
  sweep.base.campaign.batch_size = 7;  // and at any batch size
  Executor four(4);
  const std::vector<CampaignResult> parallel = run_sweep(sweep, four);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].stopped_early);
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(AdaptiveScenario, RunScenarioMatchesSubmitOnHandBuiltConfig) {
  // The declarative path must drive the executor exactly as a hand-built
  // CampaignConfig would, adaptive knobs included.
  ScenarioSpec spec = ScenarioSpec::from_json_text(R"({
    "algorithm": {"name": "ate", "params": {"n": 9, "alpha": 2}},
    "adversary": [{"name": "corrupt", "params": {"alpha": 2}},
                  {"name": "good-rounds", "params": {"period": 5}}],
    "predicates": ["p-alpha"],
    "campaign": {"runs": 600, "rounds": 40, "seed": 77, "threads": 2,
                 "adaptive": {"min_runs": 40, "ci_epsilon": 0.05}}
  })");
  Executor executor(2);
  const CampaignResult via_spec = run_scenario(spec, executor);

  const ResolvedScenario resolved = resolve_scenario(spec);
  EXPECT_TRUE(resolved.config.adaptive.enabled);
  EXPECT_EQ(resolved.config.adaptive.min_runs, 40);
  const CampaignResult via_submit =
      executor
          .submit(resolved.values, resolved.instance, resolved.adversary,
                  resolved.config)
          .take();
  expect_identical(via_spec, via_submit);
  EXPECT_TRUE(via_spec.stopped_early);
  EXPECT_LT(via_spec.runs, 600);
}

TEST(AdaptiveScenario, InfeasibleAdaptiveKnobsFailAtResolveTime) {
  ScenarioSpec spec;
  spec.algorithm = component("ate", {{"n", 9}});
  spec.campaign.adaptive.enabled = true;
  spec.campaign.adaptive.ci_epsilon = -1.0;
  EXPECT_THROW(resolve_scenario(spec), ScenarioError);
  spec.campaign.adaptive.ci_epsilon = 0.05;
  spec.campaign.adaptive.min_runs = 0;
  EXPECT_THROW(resolve_scenario(spec), ScenarioError);
  spec.campaign.adaptive.min_runs = 10;
  spec.campaign.adaptive.ci_confidence = 1.5;
  EXPECT_THROW(resolve_scenario(spec), ScenarioError);
  spec.campaign.adaptive.ci_confidence = 0.95;
  spec.campaign.batch_size = -2;
  EXPECT_THROW(resolve_scenario(spec), ScenarioError);
}

}  // namespace
}  // namespace hoval
