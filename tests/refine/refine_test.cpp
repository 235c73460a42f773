/// Locks the refinement layer's contracts (src/refine/):
///
///  - determinism: the full RefinedSweepResult is byte-identical for any
///    executor thread count (the daemon serves the same bytes);
///  - threshold hunting: a synthetic step function is bracketed down to
///    the resolution floor with fewer than half the dense grid's runs;
///  - the stopping rules: the point budget halts subdivision (with the
///    budget_exhausted flag raised) and a flat landscape never splits;
///  - lossless JSON round-trips of the result document.
///
/// The synthetic step: a phase-based algorithm with unanimous inputs and
/// faithful communication decides at one fixed round, so termination as a
/// function of the campaign.rounds horizon is exactly 0 below the decision
/// round and exactly 1 at or above it — a step whose location the driver
/// must find by subdividing [1, 16].

#include "refine/driver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "refine/spec.hpp"
#include "scenario/spec.hpp"
#include "sim/executor.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace hoval {
namespace {

/// Termination as a function of the horizon: a step at the (unknown to
/// the driver) decision round of utea under faithful communication.
SweepSpec step_sweep(int max_depth = 4, int max_points = 64) {
  SweepSpec sweep = SweepSpec::from_json_text(R"({
    "scenario": {
      "algorithm": {"name": "utea", "params": {"n": 6, "alpha": 1}},
      "values": {"name": "unanimous", "params": {"value": 1}},
      "campaign": {"runs": 40, "rounds": 1, "seed": 1234}
    },
    "axes": [{"path": "campaign.rounds", "points": [1, 16]}],
    "refine": {"monitor": "termination"}
  })");
  sweep.refine.max_depth = max_depth;
  sweep.refine.max_points = max_points;
  return sweep;
}

TEST(RefinementDriver, ByteIdenticalAcrossThreadCounts) {
  const SweepSpec sweep = step_sweep();
  std::set<std::string> dumps;
  for (const int threads : {1, 2, 8}) {
    Executor executor(threads);
    const RefinedSweepResult refined = run_refined_sweep(sweep, &executor);
    dumps.insert(refined.to_json().dump());
  }
  EXPECT_EQ(dumps.size(), 1u)
      << "refined result bytes depend on the executor thread count";
}

TEST(RefinementDriver, BracketsTheStepWithUnderHalfTheDenseRuns) {
  const SweepSpec sweep = step_sweep();
  Executor executor(2);
  const RefinedSweepResult refined = run_refined_sweep(sweep, &executor);

  EXPECT_FALSE(refined.cancelled);
  EXPECT_FALSE(refined.budget_exhausted);
  EXPECT_GE(refined.generations, 2) << "the step never triggered a split";

  // The dense grid at the integer resolution floor is the 16 horizons of
  // [1, 16]; refinement must spend fewer than half its runs.
  EXPECT_EQ(refined.dense_points, 16);
  EXPECT_EQ(refined.dense_runs_estimate, 16 * 40);
  EXPECT_LT(refined.runs_executed * 2, refined.dense_runs_estimate);
  EXPECT_GT(refined.runs_saved_pct(), 50.0);

  // Termination is a 0/1 step in the horizon, so the sorted point list
  // must show exactly one 0 -> 1 transition, narrowed to adjacent
  // integers (the resolution floor brackets the decision round).
  ASSERT_GE(refined.points.size(), 3u);
  int transitions = 0;
  for (std::size_t i = 0; i + 1 < refined.points.size(); ++i) {
    const RefinedPoint& lo = refined.points[i];
    const RefinedPoint& hi = refined.points[i + 1];
    EXPECT_EQ(lo.monitored_trials, 40);
    const bool lo_terminates = lo.monitored_successes == lo.monitored_trials;
    const bool hi_terminates = hi.monitored_successes == hi.monitored_trials;
    if (!lo_terminates && hi_terminates) {
      ++transitions;
      EXPECT_EQ(lo.monitored_successes, 0);
      EXPECT_EQ(hi.coordinates[0].as_int64() - lo.coordinates[0].as_int64(), 1)
          << "the step was not narrowed to the resolution floor";
    } else {
      EXPECT_EQ(lo_terminates, hi_terminates)
          << "termination is not a step function of the horizon";
    }
  }
  EXPECT_EQ(transitions, 1);
}

TEST(RefinementDriver, SeedsDeriveFromCoordinatesNotSubmissionOrder) {
  const SweepSpec sweep = step_sweep();
  Executor executor(1);
  const RefinedSweepResult refined = run_refined_sweep(sweep, &executor);
  std::set<std::uint64_t> seeds;
  for (const RefinedPoint& point : refined.points) {
    EXPECT_EQ(point.seed,
              derived_seed_from_bytes(sweep.base.campaign.seed,
                                      canonical_coordinates(point.coordinates)));
    EXPECT_EQ(point.result.runs, 40);
    seeds.insert(point.seed);
  }
  EXPECT_EQ(seeds.size(), refined.points.size());
}

TEST(RefinementDriver, BudgetExhaustionStopsSubdivisionAndRaisesTheFlag) {
  const SweepSpec sweep = step_sweep(/*max_depth=*/4, /*max_points=*/3);
  Executor executor(2);
  const RefinedSweepResult refined = run_refined_sweep(sweep, &executor);
  EXPECT_TRUE(refined.budget_exhausted);
  EXPECT_LE(refined.points.size(), 3u);
  EXPECT_EQ(refined.runs_executed,
            static_cast<long long>(refined.points.size()) * 40);
}

TEST(RefinementDriver, FlatLandscapeNeverSplits) {
  // No adversary, so the agreement-violation rate is identically zero:
  // every adjacent Wilson interval pair overlaps and the coarse grid is
  // the final grid.
  SweepSpec sweep = step_sweep();
  sweep.refine.monitor = MonitorSelector::parse("violations");
  Executor executor(2);
  const RefinedSweepResult refined = run_refined_sweep(sweep, &executor);
  EXPECT_EQ(refined.generations, 1);
  EXPECT_TRUE(refined.splits.empty());
  EXPECT_EQ(refined.points.size(), 2u);
  for (const RefinedPoint& point : refined.points)
    EXPECT_EQ(point.monitored_successes, 0);
}

TEST(RefinedSweepResult, JsonRoundTripIsLossless) {
  const SweepSpec sweep = step_sweep();
  Executor executor(2);
  const RefinedSweepResult refined = run_refined_sweep(sweep, &executor);
  const Json document = refined.to_json();
  const RefinedSweepResult reparsed = RefinedSweepResult::from_json(document);
  EXPECT_EQ(reparsed.to_json().dump(), document.dump());
  EXPECT_EQ(reparsed.points.size(), refined.points.size());
  EXPECT_EQ(reparsed.runs_saved(), refined.runs_saved());
}

TEST(RefinementDriver, CoarseGridLargerThanBudgetIsRejected) {
  const SweepSpec sweep = step_sweep(/*max_depth=*/4, /*max_points=*/1);
  Executor executor(1);
  EXPECT_THROW(run_refined_sweep(sweep, &executor), RefineError);
}

TEST(RefinementDriver, BlockingWrapperRejectsANullExecutor) {
  EXPECT_THROW(run_refined_sweep(step_sweep(), nullptr), PreconditionError);
}

}  // namespace
}  // namespace hoval
