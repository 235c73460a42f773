#pragma once

/// \file spec.hpp
/// The declarative scenario layer: every experiment in this repository is
/// one shape — an HO algorithm run under a transmission-fault adversary
/// stack, with initial values drawn from a distribution and predicates
/// evaluated on the trace — and ScenarioSpec captures that shape as
/// *data*.  A spec round-trips losslessly through JSON, is resolved
/// against the string-keyed registries (scenario/registry.hpp), and runs
/// through run_scenario() (scenario/run.hpp) on the same Executor as
/// every hand-built campaign; the result is bit-identical to the
/// equivalent hand-rolled builders.
///
/// SweepSpec layers grid expansion on top: any scalar field of the spec
/// (addressed by a dotted JSON path such as "algorithm.params.alpha" or
/// "campaign.runs") becomes a sweep axis yielding one spec — and one
/// CampaignResult — per grid point.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "model/types.hpp"
#include "refine/spec.hpp"
#include "sim/trace_retention.hpp"
#include "stats/interval.hpp"
#include "util/json.hpp"

namespace hoval {

/// Thrown on invalid scenario documents: unknown registry names (with a
/// "did you mean" suggestion when one is close), missing or mistyped
/// fields, unknown keys, and malformed JSON text.
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& what) : std::runtime_error(what) {}
};

/// One registry-resolved building block: a registry key plus its JSON
/// parameter object.  What the params mean is defined by the registered
/// factory (see `hoval_cli --list` for the catalogue).
struct ComponentSpec {
  std::string name;
  Json params = Json::object();

  Json to_json() const;
  /// `what` names the component's role in error messages ("algorithm",
  /// "adversary layer", ...).  Accepts either {"name": ..., "params": ...}
  /// or the shorthand bare string "name" (empty params).
  static ComponentSpec from_json(const Json& json, const std::string& what);
};

bool operator==(const ComponentSpec& a, const ComponentSpec& b);
inline bool operator!=(const ComponentSpec& a, const ComponentSpec& b) {
  return !(a == b);
}

/// Convenience constructor for building specs in code.
ComponentSpec component(std::string name, Json::Object params = {});

/// Parses a trace-retention spelling ("none"/"violations"/"all"),
/// throwing ScenarioError with a "did you mean" suggestion on anything
/// else.  `what` names the knob in the message ("\"campaign.keep_traces\"",
/// "--keep-traces"); shared by the JSON parser and the CLI flag.
TraceRetention parse_trace_retention_or_throw(const std::string& text,
                                              const std::string& what);

/// Campaign knobs of a scenario; mirrors the scalar fields of
/// CampaignConfig / SimConfig.  `threads` is the exception: it sizes the
/// Executor a front end builds to run the document (hoval_cli without
/// --threads), never a campaign, so one spec file serves serial repro
/// runs and saturating sweeps alike.
struct CampaignKnobs {
  int runs = 100;
  Round rounds = 50;                 ///< per-run horizon (SimConfig::max_rounds)
  bool stop_when_all_decided = true;
  std::uint64_t seed = 0xC0FFEE;     ///< campaign base seed
  int threads = 0;                   ///< CLI pool size; 0 = all cores
  int max_recorded_violations = 5;
  int batch_size = 0;                ///< runs claimed per pool task; 0 = auto
  /// Sequential confidence-interval stopping (stats/interval.hpp).
  /// Serialised as the "adaptive" object of the campaign document; absent
  /// means disabled (the classic fixed budget).
  StoppingRule adaptive;
  /// Trace retention (sim/trace_retention.hpp): which runs' traces the
  /// campaign keeps.  Serialised as the "keep_traces" string ("none" /
  /// "violations" / "all"); absent means none.
  TraceRetention keep_traces = TraceRetention::kNone;
};

bool operator==(const CampaignKnobs& a, const CampaignKnobs& b);

/// A complete, self-describing experiment.
struct ScenarioSpec {
  /// Free-form note carried through the JSON (not semantically meaningful).
  std::string description;
  ComponentSpec algorithm;                ///< AlgorithmRegistry key + params
  /// Adversary stack, inner-first: the first layer is the base fault
  /// injector, later layers wrap (schedulers, clamps) or are composed in
  /// sequence.  Empty = faithful communication (identity adversary).
  std::vector<ComponentSpec> adversaries;
  ComponentSpec values{"random"};         ///< ValueGenRegistry key + params
  std::vector<ComponentSpec> predicates;  ///< PredicateRegistry keys + params
  CampaignKnobs campaign;

  /// Serialises to the canonical JSON document shape — object keys in
  /// sorted order at every level: {"adversary": [...], "algorithm",
  /// "campaign": {...}, "description"?, "predicates": [...], "values"}.
  /// Canonical means byte-stable: one experiment has exactly one compact
  /// dump, which is what the service result cache hashes
  /// (src/service/cache.hpp) and tests/scenario/spec_test.cpp locks.
  Json to_json() const;
  std::string to_json_text(int indent = 2) const;

  /// Parses and validates a scenario document.  Component names are
  /// checked against the registries (unknown names fail with a
  /// suggestion); unknown document keys are rejected rather than ignored.
  /// \throws ScenarioError
  static ScenarioSpec from_json(const Json& json);
  static ScenarioSpec from_json_text(std::string_view text);
};

bool operator==(const ScenarioSpec& a, const ScenarioSpec& b);
inline bool operator!=(const ScenarioSpec& a, const ScenarioSpec& b) {
  return !(a == b);
}

/// One sweep dimension: one or more dotted JSON paths in the scenario
/// document and the value tuples they take.  The common case is a single
/// path with scalar points ({"path": "algorithm.params.alpha", "points":
/// [0, 1, 2]}); *linked* axes name several paths that advance together
/// ({"paths": [...], "points": [[...], ...]}), which expresses grids whose
/// fields co-vary — per-point horizons, per-point seeds, or an explicit
/// point list (the natural unit for sharding a sweep across workers).
struct SweepAxis {
  std::vector<std::string> paths;        ///< >= 1 dotted paths
  std::vector<std::vector<Json>> points; ///< points[i] aligned with paths

  /// Convenience for the single-path case.
  static SweepAxis single(std::string path, std::vector<Json> values);
  /// Convenience for a linked axis; each tuple must match paths.size().
  static SweepAxis linked(std::vector<std::string> paths,
                          std::vector<std::vector<Json>> tuples);

  std::size_t size() const noexcept { return points.size(); }
};

/// A grid sweep over a base scenario.  expand() yields the cartesian
/// product of all axes (last axis fastest), each point re-validated
/// through ScenarioSpec::from_json so an infeasible substitution fails
/// loudly at expansion time, not mid-campaign.
struct SweepSpec {
  ScenarioSpec base;
  std::vector<SweepAxis> axes;
  /// When true, grid point i runs with base seed
  /// derived_seed(base.campaign.seed, i) so points are statistically
  /// independent; when false every point reuses the base seed.
  bool reseed_per_point = false;
  /// Adaptive refinement block (refine/spec.hpp); disabled by default.
  /// When enabled, the refinement driver (refine/driver.hpp) treats the
  /// grid as the coarse generation 0 and subdivides disagreeing axis
  /// intervals; every point's seed is then derived from its axis values.
  RefineSpec refine;

  /// Total number of grid points (product of axis sizes; 1 for no axes).
  std::size_t point_count() const;

  /// Per-axis coordinate of grid point `index` (last axis fastest) — the
  /// one source of truth for the expansion order, shared by expand() and
  /// anything labelling its results (e.g. `hoval_cli --sweep`).
  std::vector<std::size_t> point_coordinates(std::size_t index) const;

  /// All grid points as fully-validated scenarios.
  /// \throws ScenarioError on an empty axis, a bad path, or an axis over
  /// "campaign.seed" combined with reseed_per_point (the reseed would
  /// silently overwrite the swept seeds).
  std::vector<ScenarioSpec> expand() const;

  /// Grid point `index` alone, identical to expand()[index] — the
  /// O(1)-memory expansion used by the dispatcher, the sweep driver and
  /// the refinement layer, where materialising every ScenarioSpec of a
  /// huge (or growing) grid would hold O(points) documents alive.
  /// \throws ScenarioError as expand(), plus on index out of range.
  ScenarioSpec expand_point(std::size_t index) const;

  /// Expands the scenario at an explicit coordinate tuple — one value per
  /// axis, substituted into each axis's (single) path — without requiring
  /// the values to lie on the grid.  This is how the refinement driver
  /// realises subdivision midpoints.  Requires every axis to be
  /// single-path; ignores reseed_per_point (refinement derives seeds from
  /// the coordinates themselves).  \throws ScenarioError
  ScenarioSpec expand_at(const std::vector<Json>& values_per_axis) const;

  /// Validates the refine block against the axes (single-path numeric
  /// axes, known axis names, no "campaign.seed" axis, no
  /// reseed_per_point).  No-op when refinement is disabled.  Called by
  /// from_json; exposed for sweeps built in code.  \throws ScenarioError
  void validate_refine() const;

  Json to_json() const;
  static SweepSpec from_json(const Json& json);
  static SweepSpec from_json_text(std::string_view text);
};

}  // namespace hoval
