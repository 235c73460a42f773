#include "refine/driver.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <map>
#include <numeric>
#include <utility>

#include "predicates/predicate.hpp"
#include "scenario/job.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "sim/result_json.hpp"
#include "stats/interval.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hoval {

namespace {

[[noreturn]] void fail(const std::string& what) { throw RefineError(what); }

void check_known_keys(const Json& object,
                      std::initializer_list<const char*> known,
                      const std::string& what) {
  for (const auto& member : object.members()) {
    if (std::any_of(known.begin(), known.end(),
                    [&](const char* key) { return member.first == key; }))
      continue;
    std::string message =
        "unknown key \"" + member.first + "\" in " + what + " (known:";
    for (const char* key : known) message += std::string(" ") + key;
    message += ")";
    fail(message);
  }
}

Json coordinates_to_json(const std::vector<Json>& coordinates) {
  Json array = Json::array();
  for (const Json& value : coordinates) array.push_back(value);
  return array;
}

std::vector<Json> coordinates_from_json(const Json& json,
                                        const std::string& what) {
  if (!json.is_array()) fail(what + " must be an array of axis values");
  std::vector<Json> coordinates;
  for (const Json& value : json.items()) coordinates.push_back(value);
  return coordinates;
}

/// The monitored proportion's (successes, trials) of one campaign.
std::pair<long long, long long> monitored_counts(const CampaignResult& result,
                                                 const MonitorSelector& monitor) {
  switch (monitor.kind) {
    case MonitorSelector::Kind::kViolations:
      // The adaptive stopper's safety proportion: the agreement-violation
      // rate, the headline safety number of every resilience figure.
      return {result.agreement_violations, result.runs};
    case MonitorSelector::Kind::kTermination:
      return {result.terminated, result.runs};
    case MonitorSelector::Kind::kPredicate:
      for (std::size_t i = 0; i < result.predicate_names.size(); ++i)
        if (result.predicate_names[i] == monitor.predicate)
          return {result.predicate_holds[i], result.runs};
      break;
  }
  std::string message = "refine monitor \"predicate:" + monitor.predicate +
                        "\" matches no configured predicate (known:";
  for (const std::string& name : result.predicate_names)
    message += " " + name;
  message += ")";
  const std::string suggestion =
      closest_name(monitor.predicate, result.predicate_names);
  if (!suggestion.empty())
    message += " — did you mean \"predicate:" + suggestion + "\"?";
  fail(message);
}

/// Canonical ordering of coordinate tuples: per-axis numeric order where
/// both values are numbers, byte order of the dumps otherwise.  Within
/// one sweep each axis holds one value type, so this is a total order.
bool coordinates_less(const std::vector<Json>& a, const std::vector<Json>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    if (a[i].is_number() && b[i].is_number())
      return a[i].as_double() < b[i].as_double();
    return a[i].dump() < b[i].dump();
  }
  return a.size() < b.size();
}

}  // namespace

std::string canonical_coordinates(const std::vector<Json>& coordinates) {
  return coordinates_to_json(coordinates).dump();
}

// --- RefinedSweepResult -----------------------------------------------------

Json RefinedSweepResult::to_json() const {
  Json j = Json::object();
  j.set("budget_exhausted", budget_exhausted);
  j.set("cancelled", cancelled);
  j.set("dense_points", dense_points);
  j.set("dense_runs_estimate", dense_runs_estimate);
  j.set("generations", generations);
  Json point_list = Json::array();
  for (const RefinedPoint& point : points) {
    Json o = Json::object();
    o.set("coordinates", coordinates_to_json(point.coordinates));
    o.set("generation", point.generation);
    o.set("monitored_successes", point.monitored_successes);
    o.set("monitored_trials", point.monitored_trials);
    o.set("result", campaign_result_to_json(point.result));
    o.set("seed", point.seed);
    point_list.push_back(std::move(o));
  }
  j.set("points", std::move(point_list));
  j.set("runs_executed", runs_executed);
  Json split_list = Json::array();
  for (const RefinementSplit& split : splits) {
    Json o = Json::object();
    o.set("axis", static_cast<std::uint64_t>(split.axis));
    o.set("generation", split.generation);
    o.set("high", coordinates_to_json(split.high));
    o.set("low", coordinates_to_json(split.low));
    o.set("mid", coordinates_to_json(split.mid));
    split_list.push_back(std::move(o));
  }
  j.set("splits", std::move(split_list));
  return j;
}

RefinedSweepResult RefinedSweepResult::from_json(const Json& json) {
  try {
    if (!json.is_object()) fail("refined sweep result must be a JSON object");
    check_known_keys(json,
                     {"budget_exhausted", "cancelled", "dense_points",
                      "dense_runs_estimate", "generations", "points",
                      "runs_executed", "splits"},
                     "refined sweep result");
    RefinedSweepResult result;
    result.budget_exhausted = json.at("budget_exhausted").as_bool();
    result.cancelled = json.at("cancelled").as_bool();
    result.dense_points = json.at("dense_points").as_int64();
    result.dense_runs_estimate = json.at("dense_runs_estimate").as_int64();
    result.generations = json.at("generations").as_int();
    result.runs_executed = json.at("runs_executed").as_int64();
    for (const Json& item : json.at("points").items()) {
      if (!item.is_object()) fail("each refined point must be a JSON object");
      check_known_keys(item,
                       {"coordinates", "generation", "monitored_successes",
                        "monitored_trials", "result", "seed"},
                       "refined point");
      RefinedPoint point;
      point.coordinates =
          coordinates_from_json(item.at("coordinates"), "\"coordinates\"");
      point.generation = item.at("generation").as_int();
      point.monitored_successes = item.at("monitored_successes").as_int64();
      point.monitored_trials = item.at("monitored_trials").as_int64();
      point.result = campaign_result_from_json(item.at("result"));
      point.seed = item.at("seed").as_uint64();
      result.points.push_back(std::move(point));
    }
    for (const Json& item : json.at("splits").items()) {
      if (!item.is_object()) fail("each refinement split must be a JSON object");
      check_known_keys(item, {"axis", "generation", "high", "low", "mid"},
                       "refinement split");
      RefinementSplit split;
      split.axis = static_cast<std::size_t>(item.at("axis").as_uint64());
      split.generation = item.at("generation").as_int();
      split.high = coordinates_from_json(item.at("high"), "\"high\"");
      split.low = coordinates_from_json(item.at("low"), "\"low\"");
      split.mid = coordinates_from_json(item.at("mid"), "\"mid\"");
      result.splits.push_back(std::move(split));
    }
    return result;
  } catch (const JsonError& e) {
    throw RefineError(std::string("invalid refined sweep result: ") + e.what());
  }
}

// --- RefinementDriver -------------------------------------------------------

RefinementDriver::RefinementDriver(SweepSpec sweep) : sweep_(std::move(sweep)) {
  if (!sweep_.refine.enabled)
    fail("RefinementDriver requires an enabled \"refine\" block");
  sweep_.validate_refine();
  for (const SweepAxis& axis : sweep_.axes)
    if (axis.points.empty())
      fail("sweep axis \"" + axis.paths[0] + "\" has no points");
  const std::size_t grid = sweep_.point_count();
  const std::size_t budget = static_cast<std::size_t>(sweep_.refine.max_points);
  if (grid > budget)
    fail("\"refine.max_points\" (" + std::to_string(budget) +
         ") is smaller than the coarse grid (" + std::to_string(grid) +
         " points)");

  // Per-axis refinement metadata: which axes refine, their value type,
  // and the resolution floor derived from max_depth.
  axis_info_.resize(sweep_.axes.size());
  const RefineSpec& refine = sweep_.refine;
  for (std::size_t a = 0; a < sweep_.axes.size(); ++a) {
    const SweepAxis& axis = sweep_.axes[a];
    AxisInfo& info = axis_info_[a];
    const bool numeric =
        std::all_of(axis.points.begin(), axis.points.end(),
                    [](const std::vector<Json>& tuple) {
                      return tuple[0].is_number();
                    });
    info.refined =
        refine.axes.empty()
            ? numeric
            : std::find(refine.axes.begin(), refine.axes.end(),
                        axis.paths[0]) != refine.axes.end();
    if (axis.size() < 2) info.refined = false;
    if (!info.refined) continue;
    info.integer =
        std::all_of(axis.points.begin(), axis.points.end(),
                    [](const std::vector<Json>& tuple) {
                      return tuple[0].is_integer();
                    });
    double min_gap = 0.0;
    for (std::size_t i = 0; i + 1 < axis.points.size(); ++i) {
      const double gap =
          axis.points[i + 1][0].as_double() - axis.points[i][0].as_double();
      if (i == 0 || gap < min_gap) min_gap = gap;
    }
    info.floor = std::ldexp(min_gap, -refine.max_depth);
    if (info.integer) info.floor = std::max(1.0, info.floor);
  }

  const CampaignKnobs& knobs = sweep_.base.campaign;
  per_point_cap_ =
      knobs.adaptive.enabled ? knobs.adaptive.cap(knobs.runs) : knobs.runs;

  // Generation 0: the coarse grid, with values normalised per axis (all
  // integers, or all doubles) so one coordinate tuple has exactly one
  // canonical byte string — and therefore one seed — everywhere.
  std::vector<std::vector<Json>> tuples;
  tuples.reserve(grid);
  for (std::size_t i = 0; i < grid; ++i) {
    const std::vector<std::size_t> coordinate = sweep_.point_coordinates(i);
    std::vector<Json> tuple;
    tuple.reserve(sweep_.axes.size());
    for (std::size_t a = 0; a < sweep_.axes.size(); ++a) {
      const Json& value = sweep_.axes[a].points[coordinate[a]][0];
      if (!axis_info_[a].refined)
        tuple.push_back(value);
      else if (axis_info_[a].integer)
        tuple.push_back(Json(value.as_int64()));
      else
        tuple.push_back(Json(value.as_double()));
    }
    tuples.push_back(std::move(tuple));
  }

  // A monitored predicate must exist before any runs are spent on it.
  if (refine.monitor.kind == MonitorSelector::Kind::kPredicate &&
      !tuples.empty()) {
    const ResolvedScenario probe =
        resolve_scenario(sweep_.expand_at(tuples.front()));
    std::vector<std::string> names;
    for (const auto& predicate : probe.config.predicates)
      names.push_back(std::string(predicate->name()));
    if (std::find(names.begin(), names.end(), refine.monitor.predicate) ==
        names.end()) {
      std::string message = "refine monitor \"predicate:" +
                            refine.monitor.predicate +
                            "\" matches no configured predicate (known:";
      for (const std::string& name : names) message += " " + name;
      message += ")";
      const std::string suggestion =
          closest_name(refine.monitor.predicate, names);
      if (!suggestion.empty())
        message += " — did you mean \"predicate:" + suggestion + "\"?";
      fail(message);
    }
  }

  for (std::vector<Json>& tuple : tuples) {
    std::string key = canonical_coordinates(tuple);
    if (!membership_.insert(key).second) continue;  // duplicate grid point
    add_point(std::move(tuple), key);
  }
}

void RefinementDriver::add_point(std::vector<Json> coordinates,
                                 const std::string& key) {
  PointState point;
  point.coordinates = std::move(coordinates);
  point.seed = derived_seed_from_bytes(sweep_.base.campaign.seed, key);
  point.generation = generation_;
  points_.push_back(std::move(point));
  results_.emplace_back();
  successes_.push_back(0);
  trials_.push_back(0);
}

std::vector<ScenarioSpec> RefinementDriver::generation() const {
  std::vector<ScenarioSpec> specs;
  specs.reserve(points_.size() - generation_begin_);
  for (std::size_t i = generation_begin_; i < points_.size(); ++i) {
    specs.push_back(sweep_.expand_at(points_[i].coordinates));
    specs.back().campaign.seed = points_[i].seed;
  }
  return specs;
}

void RefinementDriver::record(std::vector<CampaignResult> results) {
  HOVAL_EXPECTS_MSG(results.size() == points_.size() - generation_begin_,
                    "one result per point of the current generation");
  for (std::size_t k = 0; k < results.size(); ++k) {
    const std::size_t index = generation_begin_ + k;
    results_[index] = std::move(results[k]);
    const auto [successes, trials] =
        monitored_counts(results_[index], sweep_.refine.monitor);
    successes_[index] = successes;
    trials_[index] = trials;
    runs_executed_ += results_[index].runs;
  }
}

bool RefinementDriver::advance() {
  std::vector<std::pair<std::vector<Json>, std::string>> fresh =
      decide_splits();
  if (fresh.empty()) return false;
  ++generation_;
  generation_begin_ = points_.size();
  for (auto& [coordinates, key] : fresh) add_point(std::move(coordinates), key);
  return true;
}

std::vector<std::pair<std::vector<Json>, std::string>>
RefinementDriver::decide_splits() {
  std::vector<std::pair<std::vector<Json>, std::string>> fresh;
  const double confidence = sweep_.refine.ci_confidence;
  const double epsilon = sweep_.refine.disagreement_epsilon;
  const std::size_t budget = static_cast<std::size_t>(sweep_.refine.max_points);
  for (std::size_t a = 0; a < axis_info_.size(); ++a) {
    if (!axis_info_[a].refined) continue;
    // Scan lines along axis a: group every point by its coordinates on
    // the *other* axes.  std::map keeps group iteration deterministic.
    std::map<std::string, std::vector<std::size_t>> lines;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      std::vector<Json> rest = points_[i].coordinates;
      rest[a] = Json();
      lines[canonical_coordinates(rest)].push_back(i);
    }
    for (auto& [line_key, indices] : lines) {
      (void)line_key;
      std::sort(indices.begin(), indices.end(),
                [&](std::size_t x, std::size_t y) {
                  return points_[x].coordinates[a].as_double() <
                         points_[y].coordinates[a].as_double();
                });
      for (std::size_t k = 0; k + 1 < indices.size(); ++k) {
        const std::size_t lo = indices[k];
        const std::size_t hi = indices[k + 1];
        const double low_value = points_[lo].coordinates[a].as_double();
        const double high_value = points_[hi].coordinates[a].as_double();
        // Resolution floor: only subdivide while both halves stay at or
        // above the floor (with a relative tolerance for binary halving
        // of decimal grids).
        if ((high_value - low_value) / 2.0 <
            axis_info_[a].floor * (1.0 - 1e-9))
          continue;
        if (trials_[lo] == 0 || trials_[hi] == 0) continue;
        const ConfidenceInterval low_interval =
            wilson_interval(successes_[lo], trials_[lo], confidence);
        const ConfidenceInterval high_interval =
            wilson_interval(successes_[hi], trials_[hi], confidence);
        if (!intervals_disagree(low_interval, high_interval, epsilon))
          continue;
        std::vector<Json> mid = points_[lo].coordinates;
        if (axis_info_[a].integer) {
          const std::int64_t low_int = points_[lo].coordinates[a].as_int64();
          const std::int64_t high_int = points_[hi].coordinates[a].as_int64();
          mid[a] = Json(low_int + (high_int - low_int) / 2);
        } else {
          mid[a] = Json((low_value + high_value) / 2.0);
        }
        std::string key = canonical_coordinates(mid);
        if (membership_.count(key) != 0) continue;
        if (points_.size() + fresh.size() >= budget) {
          // A wanted midpoint exists but the budget is spent.
          budget_exhausted_ = true;
          return fresh;
        }
        membership_.insert(key);
        RefinementSplit split;
        split.generation = generation_ + 1;
        split.axis = a;
        split.low = points_[lo].coordinates;
        split.high = points_[hi].coordinates;
        split.mid = mid;
        splits_.push_back(std::move(split));
        fresh.emplace_back(std::move(mid), std::move(key));
      }
    }
  }
  return fresh;
}

RefinedSweepResult RefinementDriver::finalize(bool cancelled) {
  RefinedSweepResult result;
  result.generations = generation_ + 1;
  result.budget_exhausted = budget_exhausted_;
  result.cancelled = cancelled;
  result.runs_executed = runs_executed_;

  long long dense_points = 1;
  for (std::size_t a = 0; a < sweep_.axes.size(); ++a) {
    const SweepAxis& axis = sweep_.axes[a];
    long long count;
    if (axis_info_[a].refined) {
      const double span = axis.points.back()[0].as_double() -
                          axis.points.front()[0].as_double();
      count = static_cast<long long>(std::llround(span / axis_info_[a].floor)) + 1;
    } else {
      count = static_cast<long long>(axis.size());
    }
    dense_points *= std::max<long long>(count, 1);
  }
  result.dense_points = dense_points;
  result.dense_runs_estimate = dense_points * per_point_cap_;

  std::vector<std::size_t> order(points_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return coordinates_less(points_[x].coordinates, points_[y].coordinates);
  });
  result.points.reserve(order.size());
  for (const std::size_t index : order) {
    RefinedPoint point;
    point.coordinates = std::move(points_[index].coordinates);
    point.seed = points_[index].seed;
    point.generation = points_[index].generation;
    point.monitored_successes = successes_[index];
    point.monitored_trials = trials_[index];
    point.result = std::move(results_[index]);
    result.points.push_back(std::move(point));
  }
  result.splits = std::move(splits_);
  return result;
}

RefinedSweepResult run_refined_sweep(const SweepSpec& sweep,
                                     Executor* executor) {
  HOVAL_EXPECTS_MSG(executor != nullptr,
                    "run_refined_sweep needs an executor");
  return JobRunner(Job{JobKind::kRefinedSweep, {}, sweep}, *executor)
      .take()
      .refined;
}

}  // namespace hoval
