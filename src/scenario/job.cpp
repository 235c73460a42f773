#include "scenario/job.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <utility>

#include "scenario/run.hpp"
#include "sim/result_json.hpp"

namespace hoval {

// --- Job and JobResult -------------------------------------------------------

Job Job::of(ScenarioSpec scenario) {
  Job job;
  job.scenario = std::move(scenario);
  return job;
}

Job Job::of(SweepSpec sweep) {
  Job job;
  job.kind = sweep.refine.enabled ? JobKind::kRefinedSweep : JobKind::kSweep;
  job.sweep = std::move(sweep);
  return job;
}

Job Job::from_json(bool sweep, const Json& spec) {
  return sweep ? of(SweepSpec::from_json(spec))
               : of(ScenarioSpec::from_json(spec));
}

Json Job::to_json() const {
  return is_sweep() ? sweep.to_json() : scenario.to_json();
}

bool JobResult::cancelled() const {
  return refined.cancelled ||
         std::any_of(campaigns.begin(), campaigns.end(),
                     [](const CampaignResult& r) { return r.cancelled; });
}

bool JobResult::safety_clean() const {
  const auto clean = [](const CampaignResult& r) { return r.safety_clean(); };
  return std::all_of(campaigns.begin(), campaigns.end(), clean) &&
         std::all_of(refined.points.begin(), refined.points.end(),
                     [&](const RefinedPoint& p) { return clean(p.result); });
}

Json JobResult::to_json() const {
  switch (kind) {
    case JobKind::kScenario:
      return campaign_result_to_json(campaigns.front());
    case JobKind::kSweep:
      return campaign_results_to_json(campaigns);
    case JobKind::kRefinedSweep:
      break;
  }
  return refined.to_json();
}

JobResult JobResult::from_json(JobKind kind, const Json& json) {
  JobResult result;
  result.kind = kind;
  switch (kind) {
    case JobKind::kScenario:
      result.campaigns.push_back(campaign_result_from_json(json));
      break;
    case JobKind::kSweep:
      result.campaigns = campaign_results_from_json(json);
      break;
    case JobKind::kRefinedSweep:
      result.refined = RefinedSweepResult::from_json(json);
      break;
  }
  return result;
}

// --- JobRunner ---------------------------------------------------------------

/// What campaign progress callbacks touch from executor workers.  Owned by
/// shared_ptr and co-owned by every callback, so it outlives a runner
/// destroyed while its cancelled campaigns drain.
struct JobRunner::Progress {
  explicit Progress(std::function<void()> hook) : wake(std::move(hook)) {}

  std::atomic<bool> dirty{false};
  /// Per-campaign completed-run counters, indexed by submission slot.  A
  /// deque, because appending a refined sweep's next generation must not
  /// move the counters workers are writing.
  std::deque<std::atomic<long long>> completed;
  const std::function<void()> wake;
};

JobRunner::JobRunner(Job job, Executor& executor, bool track_progress,
                     std::function<void()> wake)
    : executor_(executor), track_progress_(track_progress) {
  result_.kind = job.kind;
  std::vector<ScenarioSpec> wave;
  switch (job.kind) {
    case JobKind::kScenario:
      wave.push_back(std::move(job.scenario));
      break;
    case JobKind::kSweep:
      wave = job.sweep.expand();
      break;
    case JobKind::kRefinedSweep:
      driver_ = std::make_unique<RefinementDriver>(std::move(job.sweep));
      wave = driver_->generation();
      break;
  }
  progress_ = std::make_shared<Progress>(std::move(wake));
  submit(wave);
}

JobRunner::~JobRunner() {
  for (const std::size_t index : in_flight_) handles_[index].cancel();
}

void JobRunner::submit(const std::vector<ScenarioSpec>& wave) {
  // Resolve the whole wave before submitting any of it, so an invalid
  // point fails the wave with nothing in flight.
  std::vector<ResolvedScenario> points;
  points.reserve(wave.size());
  for (const ScenarioSpec& spec : wave) points.push_back(resolve_scenario(spec));

  wave_begin_ = handles_.size();
  for (ResolvedScenario& point : points) {
    CampaignConfig& config = point.config;
    total_runs_ += config.adaptive.enabled
                       ? config.adaptive.cap(config.runs)
                       : config.runs;
    std::atomic<long long>* completed = &progress_->completed.emplace_back(0);
    if (track_progress_) {
      config.progress = [progress = progress_,
                         completed](const CampaignProgress& state) {
        completed->store(state.completed, std::memory_order_relaxed);
        // Coalesced: one wake per clean -> dirty transition.
        if (!progress->dirty.exchange(true, std::memory_order_acq_rel) &&
            progress->wake)
          progress->wake();
        return true;
      };
    }
    handles_.push_back(executor_.submit(
        std::move(point.values), std::move(point.instance),
        std::move(point.adversary), std::move(config)));
    in_flight_.push_back(handles_.size() - 1);
    result_.campaigns.emplace_back();
  }
}

void JobRunner::fail(std::exception_ptr error) {
  error_ = std::move(error);
  cancel();
  std::rethrow_exception(error_);
}

bool JobRunner::pump() {
  if (error_) std::rethrow_exception(error_);
  if (finished_) return true;
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if (!handles_[*it].ready()) {
      ++it;
      continue;
    }
    try {
      result_.campaigns[*it] = handles_[*it].take();
    } catch (...) {
      in_flight_.erase(it);
      fail(std::current_exception());
    }
    // Pin the counter to the executed runs: a cancelled campaign skips its
    // final progress flush, and an untracked one never reported at all.
    std::atomic<long long>& completed = progress_->completed[*it];
    completed.store(std::max<long long>(completed.load(std::memory_order_relaxed),
                                        result_.campaigns[*it].runs),
                    std::memory_order_relaxed);
    handles_[*it] = CampaignHandle();  // frees the campaign's run buffers
    it = in_flight_.erase(it);
  }
  if (!in_flight_.empty()) return false;

  if (driver_) {
    const auto begin = result_.campaigns.begin() +
                       static_cast<std::ptrdiff_t>(wave_begin_);
    std::vector<CampaignResult> generation(std::make_move_iterator(begin),
                                           std::make_move_iterator(
                                               result_.campaigns.end()));
    const bool cancelled =
        cancelled_ || std::any_of(generation.begin(), generation.end(),
                                  [](const CampaignResult& r) {
                                    return r.cancelled;
                                  });
    try {
      driver_->record(std::move(generation));
      if (!cancelled && driver_->advance()) {
        submit(driver_->generation());
        return false;
      }
    } catch (...) {
      fail(std::current_exception());
    }
    result_.refined = driver_->finalize(cancelled);
    result_.campaigns.clear();
    driver_.reset();
  }
  finished_ = true;
  return true;
}

void JobRunner::wait() {
  while (!pump()) handles_[in_flight_.front()].wait();
}

void JobRunner::cancel() {
  cancelled_ = true;
  for (const std::size_t index : in_flight_) handles_[index].cancel();
}

bool JobRunner::take_dirty() noexcept {
  return progress_->dirty.exchange(false, std::memory_order_acq_rel);
}

long long JobRunner::completed_runs() const noexcept {
  long long completed = 0;
  for (const std::atomic<long long>& runs : progress_->completed)
    completed += runs.load(std::memory_order_relaxed);
  return completed;
}

JobResult JobRunner::take() {
  wait();
  return std::move(result_);
}

}  // namespace hoval
