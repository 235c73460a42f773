#include "scenario/run.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

#include "adversary/adversary.hpp"

namespace hoval {

namespace {

/// Mirrors Executor::submit's preconditions (plus the spec-only knobs) so
/// an infeasible spec, or sweep substitution, fails at resolve time as a
/// ScenarioError, before any campaign starts.
void validate_knobs(const CampaignKnobs& knobs) {
  if (knobs.runs <= 0)
    throw ScenarioError("campaign.runs must be >= 1");
  if (knobs.rounds <= 0)
    throw ScenarioError("campaign.rounds must be >= 1");
  if (knobs.threads < 0)
    throw ScenarioError("campaign.threads must be >= 0 (0 = all cores)");
  if (knobs.max_recorded_violations < 0)
    throw ScenarioError("campaign.max_recorded_violations must be >= 0");
  if (knobs.batch_size < 0)
    throw ScenarioError("campaign.batch_size must be >= 0 (0 = auto)");
  if (knobs.adaptive.enabled) {
    if (knobs.adaptive.min_runs <= 0)
      throw ScenarioError("campaign.adaptive.min_runs must be >= 1");
    if (knobs.adaptive.max_runs < 0)
      throw ScenarioError(
          "campaign.adaptive.max_runs must be >= 0 (0 = campaign.runs)");
    if (knobs.adaptive.ci_epsilon <= 0.0)
      throw ScenarioError("campaign.adaptive.ci_epsilon must be > 0");
    if (knobs.adaptive.ci_confidence <= 0.0 ||
        knobs.adaptive.ci_confidence >= 1.0)
      throw ScenarioError(
          "campaign.adaptive.ci_confidence must be in (0, 1)");
  }
}

/// Whole-sweep cancellation fan-out: the first vetoing progress callback
/// flips the flag and cancels every handle submitted so far; handles
/// submitted later are cancelled on arrival.  Safe to drive from inside a
/// point's progress callback (handle cancellation never re-enters the
/// progress path).
struct SweepCancelState {
  std::atomic<bool> flag{false};
  std::mutex mu;
  std::vector<CampaignHandle> handles;  ///< guarded by mu

  void add(CampaignHandle handle) {
    std::lock_guard<std::mutex> lock(mu);
    if (flag.load(std::memory_order_acquire)) handle.cancel();
    handles.push_back(std::move(handle));
  }

  void cancel_all() {
    if (flag.exchange(true, std::memory_order_acq_rel)) return;
    std::lock_guard<std::mutex> lock(mu);
    for (CampaignHandle& handle : handles) handle.cancel();
  }

  /// Drops the handle references once the sweep has settled.  Every
  /// point's progress closure captures this state while the state holds a
  /// handle to every point — a reference cycle that would keep the jobs
  /// (and their outcome buffers) alive forever if never broken.
  void release() {
    std::lock_guard<std::mutex> lock(mu);
    handles.clear();
  }
};

/// A point skipped outright by whole-sweep cancellation: zero executed
/// runs, cancelled, shaped like a real result (requested budget and
/// predicate names filled) so per-point reporting loops stay uniform.
CampaignResult skipped_point_result(const CampaignConfig& config) {
  CampaignResult result;
  result.cancelled = true;
  result.runs_requested = config.adaptive.enabled
                              ? config.adaptive.cap(config.runs)
                              : config.runs;
  result.predicate_holds.assign(config.predicates.size(), 0);
  result.predicate_names.reserve(config.predicates.size());
  for (const auto& predicate : config.predicates)
    result.predicate_names.push_back(predicate->name());
  if (config.adaptive.enabled) {
    // Shape-match the executor's reduction of a cancelled-before-start
    // job, so sequential and overlapping sweeps return identical results
    // even for the points a cancellation skipped.
    result.ci_confidence = config.adaptive.ci_confidence;
    result.predicate_intervals.reserve(config.predicates.size());
    for (std::size_t i = 0; i < config.predicates.size(); ++i)
      result.predicate_intervals.push_back(
          wilson_interval(0, 0, config.adaptive.ci_confidence));
  }
  return result;
}

/// Binds one point's campaign-progress stream to the sweep callback,
/// adding the point identity and routing a veto to the whole sweep.
ProgressCallback wrap_point_progress(
    const std::shared_ptr<SweepCancelState>& cancel,
    const SweepProgressCallback& progress, int point, int points) {
  if (!progress) return {};
  return [cancel, progress, point, points](const CampaignProgress& state) {
    if (cancel->flag.load(std::memory_order_acquire)) return false;
    const bool keep_going =
        progress(SweepProgress{point, points, state.completed, state.total});
    if (!keep_going) cancel->cancel_all();
    return keep_going;
  };
}

}  // namespace

ResolvedScenario resolve_scenario(const ScenarioSpec& spec) {
  validate_knobs(spec.campaign);
  ResolvedScenario resolved;

  // The algorithm resolves first: it fills the context the remaining
  // component factories default their parameters from.
  const auto& algorithm =
      AlgorithmRegistry::instance().get(spec.algorithm.name, "algorithm");
  resolved.instance = algorithm.make(spec.algorithm.params, resolved.context);

  resolved.values = ValueGenRegistry::instance()
                        .get(spec.values.name, "value generator")
                        .make(spec.values.params, resolved.context);

  AdversaryBuilder stack;  // built inner-first; null until the first layer
  for (const ComponentSpec& layer : spec.adversaries)
    stack = AdversaryRegistry::instance()
                .get(layer.name, "adversary")
                .make(layer.params, resolved.context, std::move(stack));
  if (!stack)
    stack = [] { return std::make_shared<IdentityAdversary>(); };
  resolved.adversary = std::move(stack);

  for (const ComponentSpec& predicate : spec.predicates)
    resolved.config.predicates.push_back(
        PredicateRegistry::instance()
            .get(predicate.name, "predicate")
            .make(predicate.params, resolved.context));

  resolved.config.runs = spec.campaign.runs;
  resolved.config.sim.max_rounds = spec.campaign.rounds;
  resolved.config.sim.stop_when_all_decided = spec.campaign.stop_when_all_decided;
  resolved.config.base_seed = spec.campaign.seed;
  resolved.config.max_recorded_violations = spec.campaign.max_recorded_violations;
  resolved.config.batch_size = spec.campaign.batch_size;
  resolved.config.adaptive = spec.campaign.adaptive;
  resolved.config.keep_traces = spec.campaign.keep_traces;
  return resolved;
}

CampaignResult run_scenario(const ScenarioSpec& spec, Executor& executor) {
  ResolvedScenario resolved = resolve_scenario(spec);
  return executor
      .submit(std::move(resolved.values), std::move(resolved.instance),
              std::move(resolved.adversary), std::move(resolved.config))
      .take();
}

std::vector<CampaignResult> run_sweep(const SweepSpec& sweep,
                                      Executor& executor,
                                      const SweepOptions& options) {
  // Validation pass: expand and resolve one grid point at a time
  // (SweepSpec::expand_point), so an infeasible substitution or bad
  // parameter still fails before any campaign starts — but without
  // holding O(points) specs or builders alive for huge grids.
  const std::size_t count = sweep.point_count();
  if (count == 0) sweep.expand();  // raises the precise empty-axis error
  for (std::size_t i = 0; i < count; ++i)
    resolve_scenario(sweep.expand_point(i));

  const int total_points = static_cast<int>(count);
  auto cancel = std::make_shared<SweepCancelState>();
  std::vector<CampaignResult> results;
  results.reserve(count);

  try {
    if (options.overlap_points) {
      // Submit everything, then collect in expand() order: adaptive
      // early-stoppers hand their workers to the slow points instead of
      // idling through each point's tail.
      std::vector<CampaignHandle> handles;
      handles.reserve(count);
      for (int i = 0; i < total_points; ++i) {
        ResolvedScenario point =
            resolve_scenario(sweep.expand_point(static_cast<std::size_t>(i)));
        point.config.progress =
            wrap_point_progress(cancel, options.progress, i, total_points);
        CampaignHandle handle = executor.submit(
            std::move(point.values), std::move(point.instance),
            std::move(point.adversary), std::move(point.config));
        handles.push_back(handle);
        cancel->add(std::move(handle));
      }
      for (CampaignHandle& handle : handles) results.push_back(handle.take());
    } else {
      for (int i = 0; i < total_points; ++i) {
        ResolvedScenario point =
            resolve_scenario(sweep.expand_point(static_cast<std::size_t>(i)));
        if (cancel->flag.load(std::memory_order_acquire)) {
          results.push_back(skipped_point_result(point.config));
          continue;
        }
        point.config.progress =
            wrap_point_progress(cancel, options.progress, i, total_points);
        CampaignHandle handle = executor.submit(
            std::move(point.values), std::move(point.instance),
            std::move(point.adversary), std::move(point.config));
        cancel->add(handle);
        results.push_back(handle.take());
      }
    }
  } catch (...) {
    // A failing point aborts the sweep: cancel the rest so the pool
    // drains quickly, then propagate.
    cancel->cancel_all();
    cancel->release();
    throw;
  }
  cancel->release();
  return results;
}

}  // namespace hoval
