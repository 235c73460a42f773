/// The acceptance contract of the persistent Executor (sim/executor.hpp):
/// campaigns submitted to a shared pool — at any pool size, under any
/// submission interleaving, overlapped with whole sweeps — are
/// bit-identical to the same campaign alone on a single-worker pool, and
/// CampaignHandle's cancel/ready/wait/result semantics hold from
/// cancel-before-start through cancel-midway to post-completion.

#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "adversary/corruption.hpp"
#include "core/factories.hpp"
#include "predicates/liveness.hpp"
#include "predicates/safety.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
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

CampaignConfig base_config(int runs, std::uint64_t seed) {
  CampaignConfig config;
  config.runs = runs;
  config.sim.max_rounds = 60;
  config.base_seed = seed;
  config.predicates.push_back(std::make_shared<PAlpha>(2));
  config.predicates.push_back(std::make_shared<PBenign>());
  return config;
}

/// The reference every submission must match: the same campaign alone on
/// a fresh single-worker pool.
CampaignResult serial_reference(const CampaignConfig& config) {
  Executor executor(1);
  return executor
      .submit(random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
              corruption_of(2), config)
      .take();
}

/// Full structural equality, including diagnostic string order, sample
/// order, adaptive intervals and the rendered summary.
void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.runs_requested, b.runs_requested);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.integrity_violations, b.integrity_violations);
  EXPECT_EQ(a.irrevocability_violations, b.irrevocability_violations);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.last_decision_rounds.samples(), b.last_decision_rounds.samples());
  EXPECT_EQ(a.first_decision_rounds.samples(),
            b.first_decision_rounds.samples());
  EXPECT_EQ(a.predicate_holds, b.predicate_holds);
  EXPECT_EQ(a.predicate_names, b.predicate_names);
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

// --- submission determinism -------------------------------------------------

TEST(Executor, SubmittedCampaignMatchesSerialPoolAtAnyPoolSize) {
  const auto config = base_config(64, 0xEB61);
  const CampaignResult reference = serial_reference(config);
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("pool threads=" + std::to_string(threads));
    Executor executor(threads);
    EXPECT_EQ(executor.threads(), threads);
    CampaignHandle handle = executor.submit(
        random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2), config);
    ASSERT_TRUE(handle.valid());
    handle.wait();
    EXPECT_TRUE(handle.ready());
    expect_identical(handle.result(), reference);
  }
}

TEST(Executor, InterleavedSubmissionsStayBitIdentical) {
  // Two campaign families — one fixed-budget, one adaptive (different
  // wave structure) — interleaved on one pool, three instances each.
  // Interleaving changes only which worker runs what and when; every
  // result must match its isolated serial reference exactly.
  auto adaptive_config = [](std::uint64_t seed) {
    CampaignConfig config = base_config(512, seed);
    config.adaptive.enabled = true;
    config.adaptive.min_runs = 32;
    config.adaptive.ci_epsilon = 0.04;
    config.adaptive.ci_confidence = 0.95;
    return config;
  };

  std::vector<CampaignConfig> configs;
  for (int i = 0; i < 3; ++i) {
    configs.push_back(base_config(64, 0xEB61 + i));
    configs.push_back(adaptive_config(0xADA0 + i));
  }

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("pool threads=" + std::to_string(threads));
    Executor executor(threads);
    std::vector<CampaignHandle> handles;
    for (const CampaignConfig& config : configs)
      handles.push_back(executor.submit(
          random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
          corruption_of(2), config));
    for (std::size_t i = 0; i < handles.size(); ++i) {
      SCOPED_TRACE("submission " + std::to_string(i));
      // Fresh reference per comparison: SampleSet's quantile accessors
      // sort the mutable store lazily, so a reference whose summary() ran
      // once would no longer expose run-order samples.
      expect_identical(handles[i].result(), serial_reference(configs[i]));
    }
  }
}

// --- whole-sweep scheduling -------------------------------------------------

SweepSpec alpha_sweep() {
  SweepSpec sweep;
  sweep.base.algorithm = component("ate", {{"n", 12}, {"alpha", 2}});
  sweep.base.values = component("random", {{"distinct", 3}});
  sweep.base.adversaries = {component("corrupt", {{"alpha", 2}}),
                            component("good-rounds", {{"period", 5}})};
  sweep.base.predicates = {component("p-alpha")};
  sweep.base.campaign.runs = 256;
  sweep.base.campaign.rounds = 35;
  sweep.base.campaign.seed = 0x5EED;
  // Adaptive sizing makes the points stop at different waves — exactly
  // the uneven-tail shape whole-sweep overlap is meant to exploit.
  sweep.base.campaign.adaptive.enabled = true;
  sweep.base.campaign.adaptive.min_runs = 32;
  sweep.base.campaign.adaptive.ci_epsilon = 0.06;
  sweep.axes.push_back(SweepAxis::single(
      "adversary.0.params.alpha", {Json(0), Json(1), Json(2), Json(3)}));
  sweep.reseed_per_point = true;
  return sweep;
}

TEST(Executor, ParallelSweepSubmissionBitIdenticalToSequentialRunSweep) {
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("pool threads=" + std::to_string(threads));
    // A fresh sequential reference per pool size: expect_identical renders
    // summaries, which lazily sorts the SampleSet stores — a reused
    // reference would no longer expose run-order samples.
    Executor serial(1);
    SweepOptions sequential;
    sequential.overlap_points = false;
    const std::vector<CampaignResult> reference =
        run_sweep(alpha_sweep(), serial, sequential);
    ASSERT_EQ(reference.size(), 4u);

    Executor executor(threads);
    SweepOptions parallel;
    parallel.overlap_points = true;
    const std::vector<CampaignResult> overlapped =
        run_sweep(alpha_sweep(), executor, parallel);
    ASSERT_EQ(overlapped.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      expect_identical(overlapped[i], reference[i]);
    }
  }
}

TEST(Executor, SweepsInterleavedWithForeignCampaignsStayBitIdentical) {
  // A whole sweep and an unrelated campaign share the pool; both must
  // come out exactly as if each had the pool to itself.
  Executor serial(1);
  SweepOptions sequential;
  sequential.overlap_points = false;
  const std::vector<CampaignResult> sweep_reference =
      run_sweep(alpha_sweep(), serial, sequential);
  const CampaignResult campaign_reference =
      serial_reference(base_config(96, 0xF00D));

  Executor executor(4);
  CampaignHandle foreign = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), base_config(96, 0xF00D));
  SweepOptions shared;
  shared.overlap_points = true;
  const std::vector<CampaignResult> overlapped =
      run_sweep(alpha_sweep(), executor, shared);

  expect_identical(foreign.result(), campaign_reference);
  ASSERT_EQ(overlapped.size(), sweep_reference.size());
  for (std::size_t i = 0; i < sweep_reference.size(); ++i)
    expect_identical(overlapped[i], sweep_reference[i]);
}

// --- handle semantics -------------------------------------------------------

TEST(Executor, CancelBeforeStartYieldsEmptyCancelledResult) {
  // A single worker pool, fully occupied by the first submission (workers
  // drain jobs in submission order), guarantees the second campaign has
  // not started when we cancel it.
  Executor executor(1);
  CampaignHandle busy = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), base_config(256, 0xEB61));
  CampaignHandle doomed = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), base_config(256, 0xD00D));

  EXPECT_TRUE(doomed.cancel());
  const CampaignResult& cancelled = doomed.result();
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_EQ(cancelled.runs, 0);
  EXPECT_EQ(cancelled.runs_requested, 256);
  EXPECT_EQ(cancelled.predicate_holds, (std::vector<int>{0, 0}));
  EXPECT_FALSE(doomed.cancel());  // nothing left to cancel

  // The occupying campaign is untouched.
  expect_identical(busy.result(), serial_reference(base_config(256, 0xEB61)));
}

TEST(Executor, CancelMidwayKeepsTheExecutedPrefix) {
  // The progress callback parks its worker until the main thread has
  // issued the cancel, so the campaign can never race to completion
  // before the cancel lands.
  std::mutex mu;
  std::condition_variable cv;
  bool progress_seen = false;
  bool cancel_issued = false;

  CampaignConfig config = base_config(4096, 0xEB61);
  config.progress_batch = 16;
  config.progress = [&](const CampaignProgress& progress) {
    std::unique_lock<std::mutex> lock(mu);
    progress_seen = true;
    cv.notify_all();
    cv.wait(lock, [&] { return cancel_issued; });
    return progress.completed >= 0;
  };

  Executor executor(2);
  CampaignHandle handle = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), config);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return progress_seen; });
  }
  EXPECT_TRUE(handle.cancel());
  {
    std::lock_guard<std::mutex> lock(mu);
    cancel_issued = true;
  }
  cv.notify_all();

  const CampaignResult& result = handle.result();
  EXPECT_TRUE(result.cancelled);
  EXPECT_GT(result.runs, 0);
  EXPECT_LT(result.runs, 4096);
  EXPECT_EQ(result.runs_requested, 4096);
}

TEST(Executor, ErrorsPropagateThroughHandlesAndPoolSurvives) {
  Executor executor(2);
  const auto throwing_instance = [](const std::vector<Value>&) {
    return ProcessVector{};  // size mismatch trips the run precondition
  };
  CampaignHandle failing = executor.submit(
      random_of(9, 3), throwing_instance, corruption_of(2),
      base_config(32, 0xEB61));
  EXPECT_THROW(failing.result(), PreconditionError);

  // A failed campaign must not poison the pool.
  CampaignHandle good = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), base_config(32, 0xEB61));
  EXPECT_FALSE(good.result().cancelled);
  EXPECT_EQ(good.result().runs, 32);
}

TEST(Executor, HandleOutlivesExecutor) {
  CampaignHandle handle;
  {
    Executor executor(2);
    handle = executor.submit(random_of(9, 3),
                             ate_instance(AteParams::canonical(9, 2)),
                             corruption_of(2), base_config(48, 0xEB61));
    // ~Executor drains the submission before joining the pool.
  }
  EXPECT_TRUE(handle.ready());
  EXPECT_EQ(handle.result().runs, 48);
  EXPECT_FALSE(handle.cancel());
}

TEST(Executor, TakeMovesRetainedTracesWithoutCopying) {
  CampaignConfig config = base_config(12, 0xEB61);
  config.keep_traces = TraceRetention::kAll;
  Executor executor(2);
  CampaignHandle handle = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), config);
  CampaignResult result = handle.take();
  ASSERT_EQ(result.traces.size(), 12u);
  EXPECT_EQ(result.traces.front().run, 0);
  EXPECT_EQ(result.traces.front().trace.universe_size(), 9);
}

TEST(Executor, ValidatesConfigAndThreadsAtSubmit) {
  EXPECT_THROW(Executor(-1), PreconditionError);
  Executor executor(1);
  auto config = base_config(10, 1);
  config.runs = 0;
  EXPECT_THROW(executor.submit(random_of(9, 3),
                               ate_instance(AteParams::canonical(9, 2)),
                               corruption_of(2), config),
               PreconditionError);
  config = base_config(10, 1);
  config.batch_size = -1;
  EXPECT_THROW(executor.submit(random_of(9, 3),
                               ate_instance(AteParams::canonical(9, 2)),
                               corruption_of(2), config),
               PreconditionError);
  EXPECT_THROW(executor.submit(nullptr,
                               ate_instance(AteParams::canonical(9, 2)),
                               corruption_of(2), base_config(10, 1)),
               PreconditionError);
}

}  // namespace
}  // namespace hoval
