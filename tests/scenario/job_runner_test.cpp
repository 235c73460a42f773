/// Locks the contracts of the one job runner (scenario/job.hpp):
///
///  - byte identity: for every document of the examples/scenarios corpus,
///    a JobRunner's result document equals the blocking run_scenario(),
///    run_sweep() or run_refined_sweep() document, at one worker and at
///    four, and the typed result round-trips through its JSON losslessly;
///  - cancellation: cancelling mid fixed sweep or mid refinement finishes
///    the job cancelled, well under its run budget;
///  - failure: a failing point cancels the rest of the job and its
///    exception surfaces from pump();
///  - progress: the dirty flag coalesces (one wake per clean -> dirty
///    transition), and an untracked runner installs no callback but still
///    counts every collected run.

#include "scenario/job.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adversary/adversary.hpp"
#include "refine/driver.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "sim/executor.hpp"
#include "sim/result_json.hpp"

namespace hoval {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  const std::filesystem::path corpus =
      std::filesystem::path(HOVAL_SOURCE_DIR) / "examples" / "scenarios";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(corpus))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

Json read_json(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

/// The blocking wrappers' document for a job.
std::string blocking_bytes(const Job& job, Executor& executor) {
  switch (job.kind) {
    case JobKind::kScenario:
      return campaign_result_to_json(run_scenario(job.scenario, executor))
          .dump();
    case JobKind::kSweep:
      return campaign_results_to_json(run_sweep(job.sweep, executor)).dump();
    case JobKind::kRefinedSweep:
      break;
  }
  return run_refined_sweep(job.sweep, &executor).to_json().dump();
}

/// Pumps without blocking, the way hovald's event loop does.
JobResult pump_to_completion(JobRunner& runner) {
  while (!runner.pump())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return runner.take();
}

TEST(JobRunner, CorpusBytesEqualTheBlockingWrappersAtOneAndFourWorkers) {
  const std::vector<std::filesystem::path> files = corpus_files();
  ASSERT_EQ(files.size(), 8u);
  int sweeps = 0;
  int refined = 0;
  for (const auto& file : files) {
    SCOPED_TRACE(file.filename().string());
    const Json document = read_json(file);
    const Job job = Job::from_json(document.contains("axes"), document);
    sweeps += job.kind == JobKind::kSweep ? 1 : 0;
    refined += job.kind == JobKind::kRefinedSweep ? 1 : 0;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Executor executor(threads);
      JobRunner runner(job, executor, /*track_progress=*/true);
      const JobResult result = pump_to_completion(runner);
      EXPECT_EQ(result.kind, job.kind);
      EXPECT_FALSE(result.cancelled());
      EXPECT_EQ(runner.completed_runs(), [&] {
        long long runs = result.refined.runs_executed;
        for (const CampaignResult& campaign : result.campaigns)
          runs += campaign.runs;
        return runs;
      }());
      const std::string bytes = result.to_json().dump();
      EXPECT_EQ(bytes, blocking_bytes(job, executor));
      EXPECT_EQ(JobResult::from_json(job.kind, result.to_json()).to_json().dump(),
                bytes);
    }
  }
  EXPECT_EQ(sweeps, 1);
  EXPECT_EQ(refined, 1);
}

/// Four points of 50,000 runs each: long enough that a cancel issued after
/// the first progress batch lands with most of the budget unspent.
SweepSpec long_sweep() {
  SweepSpec sweep;
  sweep.base.algorithm = component("ate", {{"n", 9}, {"alpha", 1}});
  sweep.base.adversaries = {component("corrupt", {{"alpha", 1}})};
  sweep.base.campaign.runs = 50'000;
  sweep.base.campaign.seed = 11;
  sweep.axes.push_back(SweepAxis::single(
      "adversary.0.params.alpha", {Json(0), Json(1), Json(2), Json(3)}));
  return sweep;
}

TEST(JobRunner, CancelMidFixedSweepFinishesCancelledWellUnderBudget) {
  Executor executor(2);
  JobRunner runner(Job::of(long_sweep()), executor, /*track_progress=*/true);
  EXPECT_EQ(runner.total_runs(), 4 * 50'000);
  bool cancelled = false;
  while (!runner.pump()) {
    if (!cancelled && runner.completed_runs() > 0) {
      runner.cancel();
      cancelled = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const JobResult result = runner.take();
  ASSERT_EQ(result.campaigns.size(), 4u);
  EXPECT_TRUE(result.cancelled());
  long long executed = 0;
  for (const CampaignResult& campaign : result.campaigns)
    executed += campaign.runs;
  EXPECT_LT(executed, 4 * 50'000 / 2);
}

/// A step in termination over campaign.rounds (utea under faithful
/// communication decides at one fixed round), so the driver must
/// subdivide; 2000 runs per point keep each generation in flight a while.
SweepSpec refined_step_sweep() {
  SweepSpec sweep = SweepSpec::from_json_text(R"({
    "scenario": {
      "algorithm": {"name": "utea", "params": {"n": 6, "alpha": 1}},
      "values": {"name": "unanimous", "params": {"value": 1}},
      "campaign": {"runs": 2000, "rounds": 1, "seed": 1234}
    },
    "axes": [{"path": "campaign.rounds", "points": [1, 16]}],
    "refine": {"monitor": "termination"}
  })");
  sweep.refine.max_points = 64;
  return sweep;
}

TEST(JobRunner, CancelMidRefinementFinishesCancelledWellUnderBudget) {
  const SweepSpec sweep = refined_step_sweep();
  Executor executor(2);
  JobRunner runner(Job::of(sweep), executor, /*track_progress=*/true);
  const long long coarse_total = runner.total_runs();
  EXPECT_EQ(coarse_total, 2 * 2000);
  bool cancelled = false;
  while (!runner.pump()) {
    // The pump() that submits generation 1 returns false with its total
    // grown, so the cancel lands right after the submission.
    if (!cancelled && runner.total_runs() > coarse_total) {
      runner.cancel();
      cancelled = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(cancelled);
  const JobResult result = runner.take();
  EXPECT_TRUE(result.cancelled());
  EXPECT_EQ(result.refined.generations, 2);
  EXPECT_LT(result.refined.runs_executed, 64 * 2000 / 2);

  // The uncancelled sweep goes on past generation 1.
  EXPECT_GT(run_refined_sweep(sweep, &executor).generations, 2);
}

/// An adversary that throws from its per-run builder when "fail" is set:
/// resolution succeeds, the campaign fails at its first run.
void register_failing_adversary() {
  AdversaryRegistry& registry = AdversaryRegistry::instance();
  if (registry.contains("test-failing")) return;
  registry.add("test-failing", "throws from its per-run builder",
               [](const Json& params, const ResolveContext&,
                  AdversaryBuilder) -> AdversaryBuilder {
                 ParamReader reader(params, "adversary \"test-failing\"");
                 const bool fail = reader.get_bool("fail", false);
                 reader.done();
                 if (fail)
                   return []() -> std::shared_ptr<Adversary> {
                     throw std::runtime_error("adversary build failed");
                   };
                 return [] { return std::make_shared<IdentityAdversary>(); };
               });
}

TEST(JobRunner, AFailingPointCancelsTheRestAndRethrows) {
  register_failing_adversary();
  SweepSpec sweep;
  sweep.base.algorithm = component("ate", {{"n", 9}, {"alpha", 1}});
  sweep.base.adversaries = {component("test-failing", {{"fail", false}})};
  // The executor serves submissions in order, so point 0 fails first;
  // point 1 would then run for hours unless the failure cancels it.
  sweep.base.campaign.runs = 1'000'000;
  sweep.base.campaign.rounds = 10'000;
  sweep.base.campaign.stop_when_all_decided = false;
  sweep.axes.push_back(SweepAxis::single("adversary.0.params.fail",
                                         {Json(true), Json(false)}));
  Executor executor(2);
  {
    JobRunner runner(Job::of(sweep), executor);
    EXPECT_THROW(pump_to_completion(runner), std::runtime_error);
    // Every later call reports the same failure.
    EXPECT_THROW(runner.pump(), std::runtime_error);
    EXPECT_THROW(runner.take(), std::runtime_error);
  }
  // The blocking wrapper propagates it too.
  EXPECT_THROW(run_sweep(sweep, executor), std::runtime_error);
}

TEST(JobRunner, TakeDirtyCoalescesWakeups) {
  ScenarioSpec spec;
  spec.algorithm = component("ate", {{"n", 9}, {"alpha", 1}});
  spec.campaign.runs = 4096;  // 64 progress batches
  Executor executor(2);
  auto wakes = std::make_shared<std::atomic<int>>(0);
  JobRunner runner(Job::of(spec), executor, /*track_progress=*/true,
                   [wakes] { wakes->fetch_add(1); });
  runner.wait();
  // Nobody took the flag while the campaign ran: one transition, one wake.
  EXPECT_EQ(wakes->load(), 1);
  EXPECT_TRUE(runner.take_dirty());
  EXPECT_FALSE(runner.take_dirty());
  EXPECT_EQ(runner.completed_runs(), 4096);
  EXPECT_EQ(runner.total_runs(), 4096);
}

TEST(JobRunner, UntrackedRunnerInstallsNoCallbackButCountsCollectedRuns) {
  ScenarioSpec spec;
  spec.algorithm = component("ate", {{"n", 9}, {"alpha", 1}});
  spec.campaign.runs = 512;
  Executor executor(2);
  auto wakes = std::make_shared<std::atomic<int>>(0);
  JobRunner runner(Job::of(spec), executor, /*track_progress=*/false,
                   [wakes] { wakes->fetch_add(1); });
  runner.wait();
  EXPECT_EQ(wakes->load(), 0);
  EXPECT_FALSE(runner.take_dirty());
  EXPECT_EQ(runner.completed_runs(), 512);
  EXPECT_EQ(runner.take().campaigns.front().runs, 512);
}

TEST(JobRunner, InvalidJobsFailAtConstruction) {
  Executor executor(1);
  SweepSpec sweep = refined_step_sweep();
  sweep.refine.max_points = 1;  // smaller than the coarse grid
  EXPECT_THROW(JobRunner(Job::of(sweep), executor), RefineError);
  ScenarioSpec spec;
  spec.algorithm = component("no-such-algorithm");
  EXPECT_THROW(JobRunner(Job::of(spec), executor), ScenarioError);
}

}  // namespace
}  // namespace hoval
