/// Cross-process dispatch: merged results are bit-identical to an
/// in-process run_sweep at any worker count — including under an injected
/// mid-sweep worker kill with resubmission — and worker failures degrade
/// into diagnosed quarantines, never hangs or wrong answers.
///
/// The default workers here are fork()ed children running the worker loop
/// in-process (no binary paths to plumb); the exec path is covered by the
/// CI dispatch-smoke steps, which drive the installed hoval_dispatch and
/// hoval_cli --worker binaries against each other.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "dispatch/dispatch.hpp"
#include "dispatch/wire.hpp"
#include "dispatch/worker.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "sim/executor.hpp"
#include "sim/result_json.hpp"
#include "util/faults.hpp"

#include <fcntl.h>
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

// --- the worker loop, driven synchronously through pipes -------------------

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    for (const int fd : fds)
      if (fd >= 0) ::close(fd);
  }
  void close_write() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(Dispatch, WorkerLoopServesPointsAndReportsBadOnesAsErrorFrames) {
  const std::vector<ScenarioSpec> points = demo_sweep().expand();

  Pipe in, out;
  ASSERT_TRUE(write_frame(in.fds[1], encode_point_message(0, points[0].to_json())));
  // A syntactically valid message whose scenario fails resolution: the
  // worker must answer with an error frame and keep serving.
  Json bogus = Json::object();
  bogus.set("algorithm", Json::object());
  ASSERT_TRUE(write_frame(in.fds[1], encode_point_message(1, bogus)));
  ASSERT_TRUE(write_frame(in.fds[1], encode_point_message(2, points[2].to_json())));
  in.close_write();

  EXPECT_EQ(run_worker_loop(in.fds[0], out.fds[1], 1), 0);
  ::close(out.fds[1]);
  out.fds[1] = -1;

  FrameDecoder decoder;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(out.fds[0], buffer, sizeof(buffer))) > 0)
    decoder.feed(buffer, static_cast<std::size_t>(n));
  std::vector<WireMessage> replies;
  while (const auto frame = decoder.next())
    replies.push_back(parse_message(*frame));
  EXPECT_EQ(decoder.pending_bytes(), 0u);

  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].type, WireMessage::Type::kResult);
  EXPECT_EQ(replies[0].index, 0);
  EXPECT_EQ(replies[1].type, WireMessage::Type::kError);
  EXPECT_EQ(replies[1].index, 1);
  EXPECT_FALSE(replies[1].what.empty());
  EXPECT_EQ(replies[2].type, WireMessage::Type::kResult);
  EXPECT_EQ(replies[2].index, 2);

  // The served result is the same bytes a direct run produces.
  Executor executor(1);
  EXPECT_EQ(campaign_result_to_json(
                campaign_result_from_json(replies[0].body))
                .dump(),
            campaign_result_to_json(run_scenario(points[0], executor)).dump());
}

TEST(Dispatch, WorkerLoopDiagnosesTruncatedAndGarbageStreams) {
  {
    Pipe in, out;
    const std::string frame = encode_point_message(0, Json::object());
    const std::string encoded = encode_frame(frame);
    ASSERT_GT(::write(in.fds[1], encoded.data(), encoded.size() / 2), 0);
    in.close_write();
    EXPECT_EQ(run_worker_loop(in.fds[0], out.fds[1], 1), 1);  // truncated
  }
  {
    Pipe in, out;
    ASSERT_TRUE(write_frame(in.fds[1], "this is not a protocol message"));
    in.close_write();
    EXPECT_EQ(run_worker_loop(in.fds[0], out.fds[1], 1), 2);  // protocol
  }
}

}  // namespace
}  // namespace hoval::dispatch
