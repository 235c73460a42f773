#pragma once

/// \file job.hpp
/// The one job runner.  Every experiment a front end runs is a Job: one
/// scenario, a fixed sweep (one campaign per grid point), or a refined
/// sweep (refine/driver.hpp decides its points generation by
/// generation).  A JobRunner executes any of them on a shared Executor
/// without ever blocking its caller: the constructor resolves and submits,
/// pump() collects whatever finished and submits what comes next, and
/// take() hands back a typed JobResult that serialises to the canonical
/// result document.  `hoval_cli` drives a runner to completion, hovald
/// (service/server.cpp) pumps one per active job from its event loop, and
/// the blocking wrappers run_sweep() and run_refined_sweep() are runners
/// too — so every front end gets the same bytes for the same job.
///
/// Progress and cancellation live here once.  A runner asked to track
/// progress installs one callback per campaign that stores the point's
/// completed-run count into a per-point atomic slot and flips a coalesced
/// dirty flag (calling the optional wake hook on each clean -> dirty
/// transition); a runner that was not asked installs no callback at all.
/// cancel() cancels every in-flight campaign and stops a refined sweep at
/// its current generation.
///
/// Determinism: every campaign's result is bit-identical under any pool
/// size and any interleaving (sim/executor.hpp), and refined points seed
/// from their coordinates, so a JobResult does not depend on when pump()
/// runs or on what else shares the executor.

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "refine/driver.hpp"
#include "scenario/spec.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"
#include "util/json.hpp"

namespace hoval {

enum class JobKind { kScenario, kSweep, kRefinedSweep };

/// One experiment, as submitted: the spec the kind says to read.
struct Job {
  JobKind kind = JobKind::kScenario;
  ScenarioSpec scenario;  ///< kScenario
  SweepSpec sweep;        ///< kSweep and kRefinedSweep

  static Job of(ScenarioSpec scenario);
  /// A refined sweep when sweep.refine.enabled, else a fixed one.
  static Job of(SweepSpec sweep);
  /// Parses a spec document: a sweep document when `sweep` (the protocol's
  /// submit flag, `hoval_cli --sweep`), else a scenario.  \throws
  /// ScenarioError / RefineError on an invalid document.
  static Job from_json(bool sweep, const Json& spec);

  bool is_sweep() const noexcept { return kind != JobKind::kScenario; }
  /// The scenario, or the sweep's base scenario.
  const ScenarioSpec& base() const noexcept {
    return is_sweep() ? sweep.base : scenario;
  }
  /// The spec document; from_json(is_sweep(), to_json()) round-trips.
  Json to_json() const;
};

/// A finished job's result, typed by its kind.
struct JobResult {
  JobKind kind = JobKind::kScenario;
  /// kScenario: the one campaign; kSweep: one per point in expand() order.
  std::vector<CampaignResult> campaigns;
  RefinedSweepResult refined;  ///< kRefinedSweep

  /// True when any campaign (or the refinement) was cancelled.
  bool cancelled() const;
  /// True when no campaign of the job violated a safety property.
  bool safety_clean() const;

  /// The canonical result document (campaign_result_to_json,
  /// campaign_results_to_json or RefinedSweepResult::to_json).
  Json to_json() const;
  /// Strict parse of a to_json() document of the given kind.  \throws
  /// JsonError / RefineError.
  static JobResult from_json(JobKind kind, const Json& json);
};

/// Non-blocking execution of one Job on a shared Executor.  Every member
/// must be called from one thread (the thread that pumps); only the
/// progress slots and the wake hook are touched by executor workers.
class JobRunner {
 public:
  /// Resolves every point of the job's first wave (the scenario, every
  /// grid point, or the refined sweep's coarse grid) and submits them.
  /// With `track_progress`, each campaign reports into the progress slots
  /// and `wake` (optional) is called from worker threads on each
  /// clean -> dirty transition — keep it to a wakeup, e.g. a pipe write.
  /// \throws ScenarioError / RefineError on an invalid job; nothing is
  /// submitted then.
  JobRunner(Job job, Executor& executor, bool track_progress = false,
            std::function<void()> wake = {});
  /// Cancels whatever is still in flight; never waits (the executor
  /// drains its submissions, and progress callbacks co-own their slots).
  ~JobRunner();

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Collects every finished campaign and, once a wave is complete,
  /// submits the next refinement generation or finalises the result.
  /// Never blocks.  Returns true once the job has finished.  A failing
  /// campaign cancels the rest of the job, and its exception is rethrown
  /// here (and by every later pump(), wait() and take()).
  bool pump();

  /// Blocks until finished, waiting on the in-flight campaigns in
  /// submission order (the order the executor serves them).  \throws like
  /// pump().
  void wait();

  /// Cancels every in-flight campaign; a refined sweep submits no further
  /// generation.  The job then finishes with a cancelled result.
  void cancel();

  /// Clears and returns the progress-dirty flag.
  bool take_dirty() noexcept;

  /// Runs completed across every submitted campaign, and the summed run
  /// cap of every submitted campaign (it grows with a refined sweep's
  /// generations and never shrinks).
  long long completed_runs() const noexcept;
  long long total_runs() const noexcept { return total_runs_; }

  /// Waits, then moves the result out; call once.  \throws like pump().
  JobResult take();

 private:
  struct Progress;

  void submit(const std::vector<ScenarioSpec>& wave);
  [[noreturn]] void fail(std::exception_ptr error);

  Executor& executor_;
  JobResult result_;
  std::unique_ptr<RefinementDriver> driver_;  ///< kRefinedSweep only
  std::shared_ptr<Progress> progress_;
  bool track_progress_ = false;
  /// One per submitted campaign, reset once collected.
  std::vector<CampaignHandle> handles_;
  std::vector<std::size_t> in_flight_;   ///< uncollected handle indices
  std::size_t wave_begin_ = 0;           ///< first handle of the current wave
  long long total_runs_ = 0;
  bool cancelled_ = false;
  bool finished_ = false;
  std::exception_ptr error_;
};

}  // namespace hoval
