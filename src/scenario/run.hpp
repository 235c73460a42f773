#pragma once

/// \file run.hpp
/// The one build path from a declarative ScenarioSpec to an executed
/// campaign.  resolve_scenario() turns a spec into exactly the builders
/// and CampaignConfig a hand-written harness would have constructed, and
/// run_scenario() submits them to the caller's Executor — the result is
/// bit-identical to the equivalent hand-rolled builders at any pool size.
///
/// Sweeps execute on the caller's Executor too: every grid point is
/// resolved up front, then submitted — by default all at once, so points
/// overlap and an adaptive early-stopper's workers immediately pick up
/// the slower points' runs.
/// Because every point's campaign is bit-identical under any pool and any
/// submission interleaving, overlapping changes wall time only, never a
/// result.

#include <functional>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"

namespace hoval {

/// A scenario resolved against the registries: ready-to-run builders plus
/// the CampaignConfig equivalent of the spec's campaign knobs.  Callers
/// that need more than run_scenario() offers (progress hooks, single-run
/// tracing, custom timing) resolve first and submit to an Executor
/// themselves.
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

/// Snapshot handed to a sweep progress callback: one point's campaign
/// progress plus the point's identity within the sweep, so drivers can
/// print "point k/N" lines.
struct SweepProgress {
  int point = 0;      ///< 0-based index in expand() order
  int points = 0;     ///< total points in the sweep
  int completed = 0;  ///< runs finished in this point's campaign
  int total = 0;      ///< this point's configured run cap
};

/// Invoked with the batching of CampaignConfig::progress_batch, per
/// point; with overlapping points, callbacks for different points
/// interleave (each point's stream is serialised).  Returning false
/// cancels the *whole sweep*: every in-flight point is cancelled and
/// every not-yet-started point is skipped.
using SweepProgressCallback = std::function<bool(const SweepProgress&)>;

/// How run_sweep() executes the expanded grid.
struct SweepOptions {
  /// Submit every point up front so points overlap on the pool (the
  /// default), or wait for each point before submitting the next.
  /// Results are bit-identical either way; sequential trades the
  /// overlap's wall-time win for strictly ordered progress callbacks.
  bool overlap_points = true;
  /// Optional point-aware progress/cancellation hook.
  SweepProgressCallback progress;
};

/// Expands the sweep and resolves *every* grid point before running any
/// of them, so an infeasible substitution fails before the first campaign
/// starts.  Executes the points per `options` on `executor` and returns
/// one CampaignResult per point, in expand() order.  Points skipped by a
/// whole-sweep cancellation come back as empty results with
/// CampaignResult::cancelled set.
std::vector<CampaignResult> run_sweep(const SweepSpec& sweep,
                                      Executor& executor,
                                      const SweepOptions& options = {});

}  // namespace hoval
