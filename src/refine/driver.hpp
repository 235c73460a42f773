#pragma once

/// \file driver.hpp
/// Adaptive sweep refinement: threshold hunting on the shared Executor.
///
/// A RefinementDriver runs a coarse SweepSpec grid as *generation 0*, then
/// repeatedly subdivides axis intervals whose endpoint statistics disagree:
/// two adjacent points are compared by the Wilson interval of a monitored
/// proportion (violation rate, termination rate, or one predicate's hold
/// rate — RefineSpec::monitor), and an interval whose endpoints are
/// distinguishable at the configured confidence
/// (stats/interval.hpp::intervals_disagree) gets a midpoint submitted as
/// the next generation.  Subdivision stops at a per-axis resolution floor
/// ((initial minimum gap) / 2^max_depth) or when the total point budget
/// (max_points) is hit — so the runs concentrate exactly where the phase
/// transitions of the paper's resilience figures live, instead of being
/// spent uniformly on flat plateaus.
///
/// Determinism contract (the same one the rest of the repository keeps):
/// refinement decisions are made only at *generation boundaries*, from the
/// completed generation's statistics — never from partial results — and
/// they are evaluated in a fixed order (axis index, then canonical
/// coordinate order).  Every point's campaign seed is derived from its
/// *axis values* — derived_seed_from_bytes(base seed, canonical serialised
/// coordinates) — not from any grid or submission index.  A refined
/// point's result therefore depends only on the spec, and the full
/// RefinedSweepResult is byte-identical for any executor thread count,
/// any submission interleaving, and local vs daemon-served execution.
///
/// The driver is the refinement algorithm alone, and it executes nothing:
/// it lays out each generation's points (coordinates, derived seed,
/// ready-to-resolve scenario), records their results, and decides the
/// next generation.  JobRunner (scenario/job.hpp) submits the generations
/// to an Executor, tracks their progress and cancels them, the same way
/// it runs scenarios and fixed sweeps — for hoval_cli, for hovald's event
/// loop, and for the blocking run_refined_sweep().

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "refine/spec.hpp"
#include "scenario/spec.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"
#include "util/json.hpp"

namespace hoval {

/// One executed point of a refined sweep.
struct RefinedPoint {
  std::vector<Json> coordinates;  ///< one value per sweep axis
  std::uint64_t seed = 0;         ///< coordinate-derived campaign seed
  int generation = 0;             ///< 0 = coarse grid
  /// The monitored proportion's counts (RefineSpec::monitor), the inputs
  /// of this point's disagreement tests.
  long long monitored_successes = 0;
  long long monitored_trials = 0;
  CampaignResult result;
};

/// One subdivision decision: the midpoint `mid` was inserted between
/// adjacent points `low` and `high` along `axis`.  Recorded in decision
/// order, so the list replays the refinement tree.
struct RefinementSplit {
  int generation = 0;  ///< generation the midpoint was submitted in
  std::size_t axis = 0;
  std::vector<Json> low;
  std::vector<Json> high;
  std::vector<Json> mid;
};

/// The outcome of a refined sweep: the subdivision tree plus the final
/// point list sorted by coordinates (canonical order, independent of
/// execution order).  Round-trips losslessly through JSON — the daemon
/// caches and serves this document, and CI cmp-s its bytes.
struct RefinedSweepResult {
  int generations = 0;  ///< waves executed (>= 1 once the grid ran)
  bool budget_exhausted = false;  ///< max_points stopped wanted subdivisions
  bool cancelled = false;
  long long runs_executed = 0;  ///< total runs across all points
  /// Size and run cost of the dense uniform grid at the refined
  /// resolution floor — the grid a fixed sweep would have needed for the
  /// same resolution.  A pure function of the spec (not of the results),
  /// so the savings figure is deterministic too.
  long long dense_points = 0;
  long long dense_runs_estimate = 0;
  std::vector<RefinedPoint> points;      ///< sorted by coordinates
  std::vector<RefinementSplit> splits;   ///< decision order

  long long runs_saved() const noexcept {
    return dense_runs_estimate - runs_executed;
  }
  double runs_saved_pct() const noexcept {
    return dense_runs_estimate <= 0
               ? 0.0
               : 100.0 * static_cast<double>(runs_saved()) /
                     static_cast<double>(dense_runs_estimate);
  }

  Json to_json() const;
  /// Strict parse of a to_json() document.  \throws RefineError
  static RefinedSweepResult from_json(const Json& json);
};

/// The canonical byte string of a coordinate tuple: the compact dump of
/// the JSON array of per-axis values.  This is what refined seeds hash
/// (derived_seed_from_bytes) and how the driver deduplicates points, so
/// one tuple has exactly one seed across grids, generations and hosts.
std::string canonical_coordinates(const std::vector<Json>& coordinates);

/// The refinement state machine.  Not thread-safe; one thread drives it.
class RefinementDriver {
 public:
  /// Validates the sweep (SweepSpec::validate_refine plus: refinement
  /// enabled, non-empty axes, coarse grid within max_points, a known
  /// monitored predicate) and lays out generation 0, the coarse grid.
  /// \throws RefineError or ScenarioError on an invalid spec.
  explicit RefinementDriver(SweepSpec sweep);

  /// The current generation's points as scenarios with their derived
  /// seeds, in layout order.  \throws ScenarioError on a point the
  /// sweep cannot expand.
  std::vector<ScenarioSpec> generation() const;

  /// Records the current generation's results, aligned with generation().
  void record(std::vector<CampaignResult> results);

  /// Decides the next generation from every recorded point, in
  /// deterministic order, and lays it out.  Returns false when no
  /// interval needs subdividing (or the budget is spent): refinement is
  /// complete.
  bool advance();

  /// The result document over every recorded point, sorted by
  /// coordinates; `cancelled` marks a job stopped before completion.
  /// Call once, last.
  RefinedSweepResult finalize(bool cancelled);

 private:
  struct PointState {
    std::vector<Json> coordinates;
    std::uint64_t seed = 0;
    int generation = 0;
  };
  struct AxisInfo {
    bool refined = false;
    bool integer = false;
    double floor = 0.0;  ///< resolution floor (min initial gap / 2^depth)
  };

  void add_point(std::vector<Json> coordinates, const std::string& key);
  /// Decides the next generation's midpoints from all recorded points, in
  /// deterministic order; records splits and the budget flag.
  std::vector<std::pair<std::vector<Json>, std::string>> decide_splits();

  SweepSpec sweep_;
  std::vector<AxisInfo> axis_info_;
  int per_point_cap_ = 0;  ///< run cap of one point's campaign
  int generation_ = 0;
  std::size_t generation_begin_ = 0;  ///< first point of the current generation
  bool budget_exhausted_ = false;
  long long runs_executed_ = 0;
  std::vector<PointState> points_;
  std::vector<CampaignResult> results_;   ///< aligned with points_
  std::vector<long long> successes_;      ///< monitored counts, aligned
  std::vector<long long> trials_;
  std::set<std::string> membership_;      ///< canonical keys of all points
  std::vector<RefinementSplit> splits_;
};

/// Blocking wrapper: runs the refined sweep as a JobRunner on `executor`
/// to completion.  \throws PreconditionError on a null executor, and
/// RefineError / ScenarioError on an invalid spec.
RefinedSweepResult run_refined_sweep(const SweepSpec& sweep,
                                     Executor* executor);

}  // namespace hoval
