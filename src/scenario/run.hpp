#pragma once

/// \file run.hpp
/// The one build path from a declarative ScenarioSpec to an executed
/// campaign.  resolve_scenario() turns a spec into exactly the builders
/// and CampaignConfig a hand-written harness would have constructed, and
/// run_scenario() submits them to the caller's Executor — the result is
/// bit-identical to the equivalent hand-rolled builders at any pool size.
///
/// run_sweep() is the blocking form of a fixed-sweep JobRunner
/// (scenario/job.hpp): every grid point is resolved up front, then all
/// are submitted at once, so points overlap and an adaptive
/// early-stopper's workers immediately pick up the slower points' runs.
/// Because every point's campaign is bit-identical under any pool and any
/// submission interleaving, overlapping changes wall time only, never a
/// result.

#include <vector>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"

namespace hoval {

/// A scenario resolved against the registries: ready-to-run builders plus
/// the CampaignConfig equivalent of the spec's campaign knobs.  Callers
/// that need more than run_scenario() offers (single-run tracing, custom
/// timing) resolve first and submit to an Executor themselves.
struct ResolvedScenario {
  ValueGenerator values;
  InstanceBuilder instance;
  AdversaryBuilder adversary;
  CampaignConfig config;  ///< predicates populated from the spec
  /// n and the algorithm thresholds the components resolved against.
  ResolveContext context;
};

/// Resolves every component of the spec against the registries, fully
/// validating parameters.  \throws ScenarioError on unknown names (with a
/// "did you mean" suggestion) or invalid params.
ResolvedScenario resolve_scenario(const ScenarioSpec& spec);

/// resolve_scenario() + submit to `executor` + wait.  The spec's
/// campaign.threads is not read here: the pool is already sized, and the
/// result is identical at any size.
CampaignResult run_scenario(const ScenarioSpec& spec, Executor& executor);

/// How run_sweep() executes the expanded grid.
struct SweepOptions {
  /// Submit every point up front so points overlap on the pool (the
  /// default, a JobRunner), or run the points one after another.  Results
  /// are bit-identical either way; the sequential loop is the baseline
  /// whole-sweep scheduling is measured against.
  bool overlap_points = true;
};

/// Expands the sweep and resolves *every* grid point before running any
/// of them, so an infeasible substitution fails before the first campaign
/// starts.  Executes the points per `options` on `executor` and returns
/// one CampaignResult per point, in expand() order.  A failing point
/// cancels the rest and its exception propagates.  Progress and
/// cancellation belong to JobRunner (scenario/job.hpp).
std::vector<CampaignResult> run_sweep(const SweepSpec& sweep,
                                      Executor& executor,
                                      const SweepOptions& options = {});

}  // namespace hoval
