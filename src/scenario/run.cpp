#include "scenario/run.hpp"

#include <memory>
#include <utility>

#include "adversary/adversary.hpp"
#include "scenario/job.hpp"

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
  if (options.overlap_points)
    return JobRunner(Job{JobKind::kSweep, {}, sweep}, executor)
        .take()
        .campaigns;
  const std::vector<ScenarioSpec> points = sweep.expand();
  for (const ScenarioSpec& point : points) resolve_scenario(point);
  std::vector<CampaignResult> results;
  results.reserve(points.size());
  for (const ScenarioSpec& point : points)
    results.push_back(run_scenario(point, executor));
  return results;
}

}  // namespace hoval
