/// Cross-process dispatch: merged results are bit-identical to an
/// in-process run_sweep at any worker count — including under an injected
/// mid-sweep worker kill with resubmission — and worker failures degrade
/// into diagnosed quarantines, never hangs or wrong answers.
///
/// The default backends here are fork()ed children that build a
/// service::Server in-process (no binary paths to plumb); one case execs
/// the built `hovald --stdio` instead.  The Server's side of the
/// conversation on an adopted socket is tested in daemon_test.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "dispatch/dispatch.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "sim/executor.hpp"
#include "sim/result_json.hpp"
#include "util/faults.hpp"

#include <unistd.h>

namespace hoval::dispatch {
namespace {

SweepSpec demo_sweep() {
  SweepSpec sweep;
  sweep.base.algorithm = component("ate", {{"n", 12}, {"alpha", 2}});
  sweep.base.adversaries = {component("corrupt", {{"alpha", 2}}),
                            component("good-rounds", {{"period", 5}})};
  sweep.base.values = component("random", {{"distinct", 3}});
  sweep.base.predicates = {component("p-alpha")};
  sweep.base.campaign.runs = 48;
  sweep.base.campaign.rounds = 35;
  sweep.base.campaign.seed = 0xD15B;
  sweep.axes.push_back(SweepAxis::single("adversary.0.params.alpha",
                                         {Json(0), Json(1), Json(2)}));
  sweep.axes.push_back(
      SweepAxis::single("algorithm.params.n", {Json(12), Json(16)}));
  sweep.reseed_per_point = true;
  return sweep;
}

/// The comparison the CI smoke steps make with cmp(1), in-process: the
/// serialised result arrays must match byte for byte.
std::string rendered(const std::vector<CampaignResult>& results) {
  return campaign_results_to_json(results).dump(2);
}

/// The in-process reference: the sweep on a pool that is joined again
/// before the caller forks any worker.
std::string rendered_local(const SweepSpec& sweep) {
  Executor executor(2);
  return rendered(run_sweep(sweep, executor));
}

TEST(Dispatch, MergedResultsBitIdenticalToRunSweepAtAnyWorkerCount) {
  const SweepSpec sweep = demo_sweep();
  const std::string reference = rendered_local(sweep);
  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    DispatchOptions options;
    options.workers = workers;
    const DispatchReport report = dispatch_sweep(sweep, options);
    EXPECT_TRUE(report.complete());
    EXPECT_TRUE(report.all_safety_clean());
    EXPECT_EQ(report.resubmitted_points, 0);
    EXPECT_EQ(report.workers_spawned, std::min(workers, report.points));
    EXPECT_EQ(rendered(report.results), reference);
  }
}

TEST(Dispatch, WorkerThreadsAreAThroughputKnobNotACorrectnessOne) {
  const SweepSpec sweep = demo_sweep();
  const std::string reference = rendered_local(sweep);
  DispatchOptions options;
  options.workers = 2;
  options.worker_threads = 3;
  EXPECT_EQ(rendered(dispatch_sweep(sweep, options).results), reference);
}

TEST(Dispatch, InjectedWorkerKillResubmitsAndStaysBitIdentical) {
  const SweepSpec sweep = demo_sweep();
  const std::string reference = rendered_local(sweep);
  for (const int victim : {0, 1}) {
    SCOPED_TRACE("killed slot " + std::to_string(victim));
    DispatchOptions options;
    options.workers = 2;
    options.test_kill_worker = victim;
    const DispatchReport report = dispatch_sweep(sweep, options);
    EXPECT_TRUE(report.complete());
    // The hook kills the slot right after its first assignment, so that
    // point *must* have travelled through the resubmission path.
    EXPECT_GE(report.resubmitted_points, 1);
    EXPECT_GE(report.workers_failed, 1);
    EXPECT_EQ(rendered(report.results), reference);
  }
}

TEST(Dispatch, SingleWorkerKillRespawnsAndCompletes) {
  const SweepSpec sweep = demo_sweep();
  const std::string reference = rendered_local(sweep);
  DispatchOptions options;
  options.workers = 1;
  options.test_kill_worker = 0;
  const DispatchReport report = dispatch_sweep(sweep, options);
  EXPECT_TRUE(report.complete());
  EXPECT_GE(report.resubmitted_points, 1);
  EXPECT_EQ(report.workers_spawned, 2);  // the victim + its replacement
  EXPECT_EQ(rendered(report.results), reference);
}

TEST(Dispatch, CrashLoopingWorkersQuarantineEveryPointAndReport) {
  DispatchOptions options;
  options.workers = 2;
  options.worker_argv = {"/bin/false"};  // exits before serving anything
  options.max_point_attempts = 2;
  options.max_respawns = 6;
  const DispatchReport report = dispatch_sweep(demo_sweep(), options);
  EXPECT_FALSE(report.complete());
  EXPECT_FALSE(report.all_safety_clean());  // an unfinished sweep is not clean
  EXPECT_EQ(report.quarantined.size(), static_cast<std::size_t>(report.points));
  for (const PointFailure& failure : report.quarantined) {
    EXPECT_FALSE(failure.what.empty());
    EXPECT_LE(failure.attempts, options.max_point_attempts);
  }
  for (const bool completed : report.completed) EXPECT_FALSE(completed);
}

TEST(Dispatch, HungWorkerIsKilledOnTimeoutAndQuarantined) {
  DispatchOptions options;
  options.workers = 2;
  options.worker_argv = {"sleep", "30"};  // accepts the frame, never answers
  options.point_timeout_seconds = 0.2;
  options.max_point_attempts = 1;
  options.max_respawns = 0;
  const DispatchReport report = dispatch_sweep(demo_sweep(), options);
  EXPECT_FALSE(report.complete());
  ASSERT_FALSE(report.quarantined.empty());
  EXPECT_NE(report.quarantined.front().what.find("timed out"),
            std::string::npos)
      << report.quarantined.front().what;
}

TEST(Dispatch, SafetyViolationsSurfaceInTheReport) {
  SweepSpec sweep;
  sweep.base.algorithm = component("ate", {{"n", 9}, {"alpha", 1}});
  sweep.base.adversaries = {component("split", {{"alpha", 1}})};
  sweep.base.values = component("split", {{"lo", 0}, {"hi", 1}});
  sweep.base.campaign.runs = 24;
  sweep.base.campaign.rounds = 40;
  sweep.base.campaign.seed = 7;
  sweep.axes.push_back(
      SweepAxis::single("adversary.0.params.alpha", {Json(1), Json(4)}));

  DispatchOptions options;
  options.workers = 2;
  const DispatchReport report = dispatch_sweep(sweep, options);
  EXPECT_TRUE(report.complete());
  // Point 1 (alpha=4 against a=1's budget) splits the decision; the merged
  // report must say so — this is what hoval_dispatch's exit code keys off.
  EXPECT_FALSE(report.all_safety_clean());
  EXPECT_GT(report.results[1].agreement_violations, 0);
  EXPECT_EQ(rendered(report.results), rendered_local(sweep));
}

TEST(Dispatch, SummaryCarriesTheResubmissionCount) {
  DispatchOptions options;
  options.workers = 2;
  options.test_kill_worker = 0;
  const DispatchReport report = dispatch_sweep(demo_sweep(), options);
  EXPECT_NE(report.summary().find("resubmitted_points=1"), std::string::npos)
      << report.summary();
}

TEST(Dispatch, InvalidOptionsAndSweepsFailFast) {
  DispatchOptions bad_workers;
  bad_workers.workers = 0;
  EXPECT_THROW(dispatch_sweep(demo_sweep(), bad_workers), DispatchError);

  // An infeasible point must fail host-side validation before any fork.
  SweepSpec sweep = demo_sweep();
  sweep.axes[0] =
      SweepAxis::single("adversary.0.params.alpha", {Json("not a budget")});
  EXPECT_THROW(dispatch_sweep(sweep, {}), ScenarioError);
}

TEST(Dispatch, RefinedSweepsAreRefusedBeforeAnyWorkerSpawns) {
  // Workers run fixed points only; a refined sweep dispatched as its
  // coarse grid would silently answer a different question.  The refusal
  // must come before the first fork: the worker command would leave a
  // marker file behind.
  const std::string marker =
      ::testing::TempDir() + "hoval_dispatch_refine_spawned";
  ::unlink(marker.c_str());
  SweepSpec sweep = demo_sweep();
  sweep.refine.enabled = true;
  DispatchOptions options;
  options.workers = 2;
  options.worker_argv = {"/bin/sh", "-c", "touch '" + marker + "'"};
  try {
    dispatch_sweep(sweep, options);
    ADD_FAILURE() << "a refined sweep was dispatched";
  } catch (const DispatchError& e) {
    EXPECT_NE(std::string(e.what()).find("hoval_cli --sweep"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NE(::access(marker.c_str(), F_OK), 0) << "a worker was spawned";
}

// --- chaos: the dispatcher under an installed fault plan -------------------

/// Installs the process-wide injector for one test and always clears it.
struct ScopedFaultInjection {
  faults::FaultInjector* injector;
  explicit ScopedFaultInjection(const std::string& plan)
      : injector(faults::install_fault_injector(faults::FaultPlan::parse(plan))) {}
  ~ScopedFaultInjection() { faults::clear_fault_injector(); }
};

TEST(Dispatch, FaultPlanChaosStaysBitIdenticalToTheFaultFreeRun) {
  // The acceptance contract of the chaos layer, in-process: with faults
  // hammering both pipe ends (fork inherits the injector), the dispatcher
  // must still merge the exact fault-free bytes.  Injected corruption is
  // caught by the frame CRC (bad-frame -> worker lost), injected
  // EOF/reset kill workers, and resubmission + respawn absorb all of it.
  const SweepSpec sweep = demo_sweep();
  const std::string reference = rendered_local(sweep);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    ScopedFaultInjection chaos(
        std::to_string(seed) +
        ":short=0.2,eintr=0.2,reset=0.005,eof=0.005,corrupt=0.005");
    DispatchOptions options;
    options.workers = 2;
    options.max_point_attempts = 20;
    options.max_respawns = 200;
    options.respawn_backoff_initial_ms = 1;  // keep the test fast
    options.respawn_backoff_max_ms = 8;
    const DispatchReport report = dispatch_sweep(sweep, options);
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(rendered(report.results), reference);
    EXPECT_GT(chaos.injector->stats().injected(), 0u);
  }
}

TEST(Dispatch, WorkerLossEmitsOneStructuredReasonLine) {
  DispatchOptions options;
  options.workers = 1;
  options.worker_argv = {"/bin/false"};
  options.max_point_attempts = 1;
  options.max_respawns = 0;
  std::vector<std::string> lines;
  options.log = [&](const std::string& line) { lines.push_back(line); };
  const DispatchReport report = dispatch_sweep(demo_sweep(), options);
  EXPECT_FALSE(report.complete());
  bool found = false;
  for (const std::string& line : lines) {
    if (line.rfind("worker-lost ", 0) != 0) continue;
    found = true;
    EXPECT_NE(line.find("slot=0"), std::string::npos) << line;
    EXPECT_NE(line.find("pid="), std::string::npos) << line;
    EXPECT_NE(line.find("reason="), std::string::npos) << line;
    EXPECT_NE(line.find("point="), std::string::npos) << line;
    EXPECT_NE(line.find("detail=\""), std::string::npos) << line;
  }
  EXPECT_TRUE(found) << "no worker-lost line was logged";
}

TEST(Dispatch, CrashLoopRespawnsAreBackedOffNotHotSpun) {
  // Six respawns with a 40ms initial backoff: streaks 2..7 wait
  // 40+80+160+320+320+320 >= ~1.2s.  A hot loop through /bin/false would
  // finish in tens of milliseconds — wall time is the observable.
  DispatchOptions options;
  options.workers = 1;
  options.worker_argv = {"/bin/false"};
  options.max_point_attempts = 8;
  options.max_respawns = 6;
  options.respawn_backoff_initial_ms = 40;
  options.respawn_backoff_max_ms = 320;
  std::vector<std::string> lines;
  options.log = [&](const std::string& line) { lines.push_back(line); };
  const auto start = std::chrono::steady_clock::now();
  const DispatchReport report = dispatch_sweep(demo_sweep(), options);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_FALSE(report.complete());
  EXPECT_GE(elapsed.count(), 500) << "respawns were not delayed";
  bool backoff_logged = false;
  for (const std::string& line : lines)
    if (line.find("respawn backoff") != std::string::npos) backoff_logged = true;
  EXPECT_TRUE(backoff_logged);
}

TEST(Dispatch, ExecdHovaldBackendsMergeBitIdenticallyAndSurviveAKill) {
#ifndef HOVALD_BINARY
  GTEST_SKIP() << "hovald is not built (HOVAL_BUILD_TOOLS=OFF)";
#else
  const SweepSpec sweep = demo_sweep();
  const std::string reference = rendered_local(sweep);
  for (const int victim : {-1, 0}) {
    SCOPED_TRACE("test_kill_worker=" + std::to_string(victim));
    DispatchOptions options;
    options.workers = 2;
    options.worker_argv = {HOVALD_BINARY, "--stdio", "--threads", "1"};
    options.test_kill_worker = victim;
    const DispatchReport report = dispatch_sweep(sweep, options);
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(rendered(report.results), reference);
    if (victim >= 0) {
      EXPECT_GE(report.resubmitted_points, 1);
    }
  }
#endif
}

TEST(Dispatch, GarbageSpeakingBackendIsLostAsABadFrameAndReaped) {
  // Not a frame: the length prefix "garb" is far above the frame cap.  The
  // backend then lingers; the dispatcher must kill it, not wait it out.
  DispatchOptions options;
  options.workers = 1;
  options.worker_argv = {"/bin/sh", "-c",
                         "printf 'garbage!!' >&0; exec sleep 30"};
  options.max_point_attempts = 1;
  options.max_respawns = 0;
  std::vector<std::string> lines;
  options.log = [&](const std::string& line) { lines.push_back(line); };
  const auto start = std::chrono::steady_clock::now();
  const DispatchReport report = dispatch_sweep(demo_sweep(), options);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_FALSE(report.complete());
  bool bad_frame = false;
  for (const std::string& line : lines)
    if (line.rfind("worker-lost ", 0) == 0 &&
        line.find("reason=bad-frame") != std::string::npos)
      bad_frame = true;
  EXPECT_TRUE(bad_frame) << "no bad-frame loss was logged";
}

TEST(Dispatch, LingeringBackendIsKilledAfterTheReapGrace) {
  // The backend hangs up but keeps running.  Its loss must not wait for
  // its exit: the host SIGKILLs it once the reap grace has passed.
  DispatchOptions options;
  options.workers = 1;
  options.worker_argv = {"/bin/sh", "-c", "exec 0<&-; sleep 30"};
  options.max_respawns = 0;
  std::vector<std::string> lines;
  options.log = [&](const std::string& line) { lines.push_back(line); };
  const auto start = std::chrono::steady_clock::now();
  const DispatchReport report = dispatch_sweep(demo_sweep(), options);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(kWorkerReapGraceMs + 1000));
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.workers_failed, 1);
  bool killed = false;
  for (const std::string& line : lines)
    if (line.rfind("worker-lost slot=0 pid=", 0) == 0 &&
        line.find(" reason=signal=9 point=0 ") != std::string::npos)
      killed = true;
  EXPECT_TRUE(killed) << "no worker-lost line with reason=signal=9";
}

}  // namespace
}  // namespace hoval::dispatch
