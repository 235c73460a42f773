/// Campaign semantics through Executor::submit, the one campaign runner:
/// results bit-identical across pool sizes, batch sizes and retention
/// policies, adaptive stopping, progress and cancellation, config
/// validation, and the pre-refactor golden statistics.

#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "adversary/corruption.hpp"
#include "adversary/wrappers.hpp"
#include "core/factories.hpp"
#include "predicates/liveness.hpp"
#include "predicates/safety.hpp"
#include "sim/initial_values.hpp"
#include "util/check.hpp"

namespace hoval {
namespace {

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

CampaignConfig base_config(int runs) {
  CampaignConfig config;
  config.runs = runs;
  config.sim.max_rounds = 60;
  config.base_seed = 0xEB61;
  config.predicates.push_back(std::make_shared<PAlpha>(2));
  config.predicates.push_back(std::make_shared<PBenign>());
  return config;
}

/// Full structural equality, including the order of recorded diagnostics
/// and of the decision-round samples (compared before any accessor sorts
/// the sample store).
void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.last_decision_rounds.samples(), b.last_decision_rounds.samples());
  EXPECT_EQ(a.first_decision_rounds.samples(), b.first_decision_rounds.samples());
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.runs_requested, b.runs_requested);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.integrity_violations, b.integrity_violations);
  EXPECT_EQ(a.irrevocability_violations, b.irrevocability_violations);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.predicate_holds, b.predicate_holds);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.stopped_early, b.stopped_early);
  EXPECT_EQ(a.ci_confidence, b.ci_confidence);
  ASSERT_EQ(a.predicate_intervals.size(), b.predicate_intervals.size());
  for (std::size_t i = 0; i < a.predicate_intervals.size(); ++i) {
    EXPECT_EQ(a.predicate_intervals[i].lower, b.predicate_intervals[i].lower);
    EXPECT_EQ(a.predicate_intervals[i].upper, b.predicate_intervals[i].upper);
  }
  EXPECT_EQ(a.summary(), b.summary());
}

/// Submits one campaign to a fresh pool of `threads` workers and waits.
CampaignResult run_on(int threads, const ValueGenerator& values,
                      const InstanceBuilder& instance,
                      const AdversaryBuilder& adversary,
                      const CampaignConfig& config) {
  Executor executor(threads);
  return executor.submit(values, instance, adversary, config).take();
}

CampaignResult run_with_threads(const CampaignConfig& config, int threads) {
  return run_on(threads, random_of(9, 3),
                ate_instance(AteParams::canonical(9, 2)), corruption_of(2),
                config);
}

/// Submits `config` with the stock builders; for validation tests.
void submit_config(const CampaignConfig& config) {
  Executor executor(1);
  executor
      .submit(random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
              corruption_of(2), config)
      .take();
}

TEST(CampaignExecution, ResultIdenticalAcrossThreadCounts) {
  const auto serial = run_with_threads(base_config(64), 1);
  const auto two = run_with_threads(base_config(64), 2);
  const auto eight = run_with_threads(base_config(64), 8);
  expect_identical(serial, two);
  expect_identical(serial, eight);
  EXPECT_EQ(serial.runs, 64);
  EXPECT_EQ(serial.runs_requested, 64);
}

TEST(CampaignExecution, ResultIdenticalAcrossBatchSizes) {
  // Batched task claims must not change anything — not the tallies, not
  // the sample order, not the recorded violation strings.
  auto run_with_batch = [](int batch_size, int threads) {
    auto config = base_config(64);
    config.batch_size = batch_size;
    return run_with_threads(config, threads);
  };
  const auto reference = run_with_threads(base_config(64), 1);
  for (const int batch_size : {1, 7, 64}) {
    for (const int threads : {1, 2, 8}) {
      const auto batched = run_with_batch(batch_size, threads);
      expect_identical(reference, batched);
    }
  }
}

CampaignConfig adaptive_config(int cap, double epsilon) {
  auto config = base_config(cap);
  config.adaptive.enabled = true;
  config.adaptive.min_runs = 32;
  config.adaptive.ci_epsilon = epsilon;
  config.adaptive.ci_confidence = 0.95;
  return config;
}

TEST(CampaignExecution, AdaptiveResultIdenticalAcrossThreadsAndBatches) {
  // The stopping decision is evaluated on fully-executed deterministic
  // prefixes, so the executed run set — and the whole result — must be
  // bit-identical at any thread count and batch size.
  const auto reference = run_with_threads(adaptive_config(512, 0.04), 1);
  for (const int threads : {1, 2, 8}) {
    for (const int batch_size : {1, 7, 64}) {
      auto config = adaptive_config(512, 0.04);
      config.batch_size = batch_size;
      expect_identical(reference, run_with_threads(config, threads));
    }
  }
}

TEST(CampaignExecution, AdaptiveStopsEarlyOnConvergedIntervals) {
  // This workload terminates essentially always and holds both predicates,
  // so every monitored proportion converges fast.
  const auto result = run_with_threads(adaptive_config(4096, 0.05), 4);
  EXPECT_TRUE(result.stopped_early);
  EXPECT_LT(result.runs, 4096);
  EXPECT_GE(result.runs, 32);  // min_runs floor
  EXPECT_EQ(result.runs_requested, 4096);
  EXPECT_DOUBLE_EQ(result.ci_confidence, 0.95);
  ASSERT_EQ(result.predicate_intervals.size(), 2u);
  for (const auto& interval : result.predicate_intervals)
    EXPECT_LE(interval.half_width(), 0.05);
  // The summary reports runs-executed over runs-requested.
  EXPECT_NE(result.summary().find("(adaptive, stopped early)"),
            std::string::npos);
}

TEST(CampaignExecution, AdaptiveNeverStopsBelowMinRuns) {
  auto config = adaptive_config(256, 0.5);  // epsilon so loose any n works
  config.adaptive.min_runs = 48;
  const auto result = run_with_threads(config, 2);
  EXPECT_TRUE(result.stopped_early);
  EXPECT_EQ(result.runs, 48);
}

TEST(CampaignExecution, AdaptiveRunsToCapWhenEpsilonUnreachable) {
  // An impossibly tight target degenerates to the fixed budget: every run
  // executes and the result matches the non-adaptive campaign run for run.
  const auto fixed = run_with_threads(base_config(96), 2);
  auto config = adaptive_config(96, 1e-9);
  const auto adaptive = run_with_threads(config, 8);
  EXPECT_FALSE(adaptive.stopped_early);
  EXPECT_EQ(adaptive.runs, 96);
  EXPECT_EQ(adaptive.runs_requested, 96);
  EXPECT_EQ(adaptive.predicate_holds, fixed.predicate_holds);
  EXPECT_EQ(adaptive.terminated, fixed.terminated);
  EXPECT_EQ(adaptive.violations, fixed.violations);
  EXPECT_EQ(adaptive.last_decision_rounds.samples(),
            fixed.last_decision_rounds.samples());
}

TEST(CampaignExecution, AdaptiveMaxRunsExtendsBeyondCampaignRuns) {
  // max_runs > runs lets one config serve as both the fixed budget and a
  // larger adaptive cap.
  auto config = adaptive_config(64, 1e-9);
  config.adaptive.max_runs = 160;
  const auto result = run_with_threads(config, 4);
  EXPECT_EQ(result.runs, 160);
  EXPECT_EQ(result.runs_requested, 160);
}

TEST(CampaignExecution, ValidatesAdaptiveConfig) {
  auto config = adaptive_config(64, 0.05);
  config.adaptive.min_runs = 0;
  EXPECT_THROW(submit_config(config), PreconditionError);
  config = adaptive_config(64, 0.0);
  EXPECT_THROW(submit_config(config), PreconditionError);
  config = adaptive_config(64, 0.05);
  config.adaptive.ci_confidence = 1.0;
  EXPECT_THROW(submit_config(config), PreconditionError);
  config = adaptive_config(64, 0.05);
  config.adaptive.ci_confidence = 0.0;
  EXPECT_THROW(submit_config(config), PreconditionError);
  config = adaptive_config(64, 0.05);
  config.adaptive.max_runs = -1;
  EXPECT_THROW(submit_config(config), PreconditionError);
  config = base_config(64);
  config.batch_size = -1;
  EXPECT_THROW(submit_config(config), PreconditionError);
}

TEST(CampaignExecution, ViolationRecordingDeterministicNearCap) {
  // Broken thresholds under a fixed-value poison produce integrity
  // violations on most runs; the cap must keep exactly the first
  // max_recorded_violations in run order for every thread count.
  const AteParams bad{6, /*T=*/0.5, /*E=*/1.0, /*alpha=*/6};
  RandomCorruptionConfig poison;
  poison.alpha = 6;
  poison.policy.style = CorruptionStyle::kFixedValue;
  poison.policy.fixed_value = 999;

  CampaignConfig config;
  config.runs = 48;
  config.sim.max_rounds = 30;
  config.base_seed = 0xCA9;
  config.max_recorded_violations = 4;

  auto run_it = [&](int threads) {
    return run_on(
        threads, [](Rng&) { return unanimous_values(6, 1); },
        ate_instance(bad),
        [&] { return std::make_shared<RandomCorruptionAdversary>(poison); },
        config);
  };
  const auto serial = run_it(1);
  const auto two = run_it(2);
  const auto eight = run_it(8);

  ASSERT_GT(serial.integrity_violations, 4);
  EXPECT_EQ(serial.violations.size(), 4u);
  expect_identical(serial, two);
  expect_identical(serial, eight);
}

// --- pre-refactor golden lock ----------------------------------------------
//
// The numbers below were produced *before* the zero-allocation
// run hot path landed (workspace reuse, inline ProcessSet storage, streaming
// predicates, trace retention).  Fixed-seed campaign statistics must stay
// bit-identical to that baseline at every thread count and batch size — a
// regression here means the hot path changed simulation semantics, not just
// speed.

TEST(CampaignExecution, GoldenStatsBitIdenticalToPreRefactorBaseline) {
  CampaignConfig config;
  config.runs = 96;
  config.sim.max_rounds = 60;
  config.base_seed = 0xEB61;
  config.predicates.push_back(std::make_shared<PAlpha>(2));
  config.predicates.push_back(std::make_shared<PBenign>());
  config.predicates.push_back(std::make_shared<PALive>(9, 6.0, 7.0, 2.0));

  auto run_it = [&](int threads, int batch_size) {
    config.batch_size = batch_size;
    RandomCorruptionConfig corruption;
    corruption.alpha = 2;
    return run_on(
        threads, random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
        [corruption] {
          GoodRoundConfig good;
          good.period = 5;
          return std::make_shared<GoodRoundScheduler>(
              std::make_shared<RandomCorruptionAdversary>(corruption), good);
        },
        config);
  };

  for (const int threads : {1, 2, 8}) {
    for (const int batch_size : {1, 7, 64}) {
      const auto result = run_it(threads, batch_size);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch_size));
      EXPECT_EQ(result.runs, 96);
      EXPECT_EQ(result.agreement_violations, 0);
      EXPECT_EQ(result.integrity_violations, 0);
      EXPECT_EQ(result.irrevocability_violations, 0);
      EXPECT_EQ(result.terminated, 96);
      ASSERT_EQ(result.predicate_holds.size(), 3u);
      EXPECT_EQ(result.predicate_holds[0], 96);  // P_alpha(2)
      EXPECT_EQ(result.predicate_holds[1], 0);   // P_benign
      EXPECT_EQ(result.predicate_holds[2], 96);  // P^{A,live}
      EXPECT_DOUBLE_EQ(result.last_decision_rounds.mean(), 490.0 / 96.0);
      EXPECT_DOUBLE_EQ(result.first_decision_rounds.mean(), 490.0 / 96.0);
      EXPECT_DOUBLE_EQ(result.last_decision_rounds.max(), 10.0);
      EXPECT_EQ(result.summary(),
                "96 runs: agreement ok, integrity ok, terminated 100.0%, "
                "decided by round 5.10 (median 5.0, max 10), predicates: "
                "P_alpha(2.00) 96/96; P_benign 0/96; "
                "P^{A,live}(T=6.00,E=7.00,alpha=2.00) 96/96");
    }
  }
}

TEST(CampaignExecution, GoldenViolationStringsBitIdenticalToPreRefactorBaseline) {
  const AteParams bad{6, /*T=*/0.5, /*E=*/1.0, /*alpha=*/6};
  RandomCorruptionConfig poison;
  poison.alpha = 6;
  poison.policy.style = CorruptionStyle::kFixedValue;
  poison.policy.fixed_value = 999;

  CampaignConfig config;
  config.runs = 32;
  config.sim.max_rounds = 30;
  config.base_seed = 0xCA9;
  config.max_recorded_violations = 3;

  auto run_it = [&](int threads, int batch_size) {
    config.batch_size = batch_size;
    return run_on(
        threads, [](Rng&) { return unanimous_values(6, 1); },
        ate_instance(bad),
        [&] { return std::make_shared<RandomCorruptionAdversary>(poison); },
        config);
  };

  const std::vector<std::string> expected{
      "run 0 (seed 17598398370492718545): integrity: unanimous initial "
      "value 1 but process 0 decided 999",
      "run 1 (seed 11655005971879502238): integrity: unanimous initial "
      "value 1 but process 0 decided 999",
      "run 2 (seed 9255834610867408370): integrity: unanimous initial "
      "value 1 but process 0 decided 999"};
  for (const int threads : {1, 2, 8}) {
    for (const int batch_size : {1, 7, 64}) {
      const auto result = run_it(threads, batch_size);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch_size));
      EXPECT_EQ(result.integrity_violations, 32);
      EXPECT_EQ(result.terminated, 32);
      EXPECT_DOUBLE_EQ(result.last_decision_rounds.mean(), 1.0);
      EXPECT_EQ(result.violations, expected);
    }
  }
}

// --- trace retention --------------------------------------------------------

TEST(CampaignExecution, KeepsNoTracesByDefault) {
  const auto result = run_with_threads(base_config(16), 2);
  EXPECT_TRUE(result.traces.empty());
}

TEST(CampaignExecution, KeepTracesAllRetainsEveryRunInOrder) {
  auto config = base_config(24);
  config.keep_traces = TraceRetention::kAll;
  const auto result = run_with_threads(config, 4);
  ASSERT_EQ(result.traces.size(), 24u);
  for (int run = 0; run < 24; ++run) {
    EXPECT_EQ(result.traces[static_cast<std::size_t>(run)].run, run);
    const ComputationTrace& trace =
        result.traces[static_cast<std::size_t>(run)].trace;
    EXPECT_EQ(trace.universe_size(), 9);
    EXPECT_GE(trace.round_count(), 1);
  }
  // Retained traces are real per-run traces: the predicate verdicts they
  // produce agree with the campaign tallies.
  int palpha_holds = 0;
  for (const auto& retained : result.traces)
    palpha_holds += PAlpha(2).evaluate(retained.trace).holds ? 1 : 0;
  EXPECT_EQ(palpha_holds, result.predicate_holds[0]);
}

TEST(CampaignExecution, KeepTracesViolationsRetainsExactlyTheViolatingRuns) {
  // The poison workload violates integrity on every run.
  const AteParams bad{6, /*T=*/0.5, /*E=*/1.0, /*alpha=*/6};
  RandomCorruptionConfig poison;
  poison.alpha = 6;
  poison.policy.style = CorruptionStyle::kFixedValue;
  poison.policy.fixed_value = 999;

  CampaignConfig config;
  config.runs = 12;
  config.sim.max_rounds = 30;
  config.base_seed = 0xCA9;
  config.keep_traces = TraceRetention::kViolations;
  const auto violating = run_on(
      2, [](Rng&) { return unanimous_values(6, 1); }, ate_instance(bad),
      [&] { return std::make_shared<RandomCorruptionAdversary>(poison); },
      config);
  EXPECT_EQ(violating.integrity_violations, 12);
  ASSERT_EQ(violating.traces.size(), 12u);
  EXPECT_EQ(violating.traces.front().run, 0);

  // A clean workload under the same policy retains nothing.
  auto clean_config = base_config(16);
  clean_config.keep_traces = TraceRetention::kViolations;
  const auto clean = run_with_threads(clean_config, 2);
  EXPECT_TRUE(clean.safety_clean());
  EXPECT_TRUE(clean.traces.empty());
}

TEST(CampaignExecution, RetentionPolicyDoesNotChangeStatistics) {
  const auto reference = run_with_threads(base_config(48), 1);
  for (const TraceRetention policy :
       {TraceRetention::kViolations, TraceRetention::kAll}) {
    for (const int threads : {1, 4}) {
      auto config = base_config(48);
      config.keep_traces = policy;
      expect_identical(reference, run_with_threads(config, threads));
    }
  }
}

TEST(CampaignExecution, ReportsBatchedProgress) {
  auto config = base_config(50);
  config.progress_batch = 16;
  std::atomic<int> calls{0};
  std::atomic<int> final_completed{0};
  config.progress = [&](const CampaignProgress& progress) {
    ++calls;
    final_completed = progress.completed;
    EXPECT_EQ(progress.total, 50);
    return true;
  };
  const auto result = run_with_threads(config, 2);
  EXPECT_FALSE(result.cancelled);
  EXPECT_EQ(result.runs, 50);
  EXPECT_GE(calls.load(), 1);
  EXPECT_EQ(final_completed.load(), 50);
}

TEST(CampaignExecution, ProgressCallbackCanCancel) {
  auto config = base_config(400);
  config.progress_batch = 8;
  config.progress = [](const CampaignProgress&) { return false; };
  const auto result = run_with_threads(config, 2);
  EXPECT_TRUE(result.cancelled);
  EXPECT_LT(result.runs, 400);
  EXPECT_GT(result.runs, 0);
}

TEST(CampaignExecution, ValidatesConfig) {
  EXPECT_THROW(Executor(-1), PreconditionError);
  auto config = base_config(10);
  config.progress_batch = 0;
  EXPECT_THROW(submit_config(config), PreconditionError);
  config.progress_batch = 64;
  config.runs = 0;
  EXPECT_THROW(submit_config(config), PreconditionError);
}

TEST(CampaignExecution, ProgressCallbackExceptionsPropagate) {
  // A throwing progress sink must surface to the caller, not terminate a
  // worker thread.
  auto config = base_config(64);
  config.progress_batch = 4;
  config.progress = [](const CampaignProgress&) -> bool {
    throw std::runtime_error("progress sink failed");
  };
  EXPECT_THROW(run_with_threads(config, 4), std::runtime_error);
}

TEST(CampaignExecution, WorkerExceptionsPropagate) {
  const auto throwing_instance = [](const std::vector<Value>&) {
    return ProcessVector{};  // size mismatch trips the run's precondition
  };
  EXPECT_THROW(run_on(4, random_of(9, 3), throwing_instance, corruption_of(2),
                      base_config(32)),
               PreconditionError);
}

}  // namespace
}  // namespace hoval
