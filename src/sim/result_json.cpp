#include "sim/result_json.hpp"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace hoval {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw JsonError("campaign result document: " + what);
}

void check_known_keys(const Json& object,
                      std::initializer_list<const char*> known) {
  for (const auto& member : object.members()) {
    if (std::any_of(known.begin(), known.end(),
                    [&](const char* key) { return member.first == key; }))
      continue;
    fail("unknown key \"" + member.first + "\"");
  }
}

const Json& require(const Json& object, const char* key) {
  const Json* value = object.find(key);
  if (!value) fail(std::string("missing key \"") + key + "\"");
  return *value;
}

int require_count(const Json& object, const char* key) {
  const Json& value = require(object, key);
  if (!value.is_integer()) fail(std::string("\"") + key + "\" must be an integer");
  const int count = value.as_int();
  if (count < 0) fail(std::string("\"") + key + "\" must be >= 0");
  return count;
}

double require_double(const Json& object, const char* key) {
  const Json& value = require(object, key);
  if (!value.is_number()) fail(std::string("\"") + key + "\" must be a number");
  return value.as_double();
}

bool require_bool(const Json& object, const char* key) {
  const Json& value = require(object, key);
  if (!value.is_bool()) fail(std::string("\"") + key + "\" must be a bool");
  return value.as_bool();
}

/// Sample sets serialise as [value, count] pairs in ascending value order:
/// the canonical form.  SampleSet is a multiset (every statistic it
/// exposes is order-insensitive); the counted form keeps a result document
/// the size of its distinct values — decision rounds repeat heavily — and
/// a canonical order makes serialisation independent of whether a
/// quantile query has already sorted the underlying store in place.
Json samples_to_json(const SampleSet& samples) {
  std::vector<double> sorted = samples.samples();
  std::sort(sorted.begin(), sorted.end());
  Json pairs = Json::array();
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    Json pair = Json::array();
    pair.push_back(sorted[i]);
    pair.push_back(static_cast<std::uint64_t>(j - i));
    pairs.push_back(std::move(pair));
    i = j;
  }
  return pairs;
}

/// Parses the counted form strictly: values must ascend with no
/// duplicates, counts must be integers >= 1, and the counts must add up to
/// `expected_total` (one sample per terminated run), which also bounds the
/// memory a document can make the parser allocate.
SampleSet samples_from_json(const Json& json, const char* key,
                            int expected_total) {
  const std::string name = std::string("\"") + key + "\"";
  if (!json.is_array()) fail(name + " must be an array of [value, count] pairs");
  SampleSet samples;
  std::int64_t total = 0;
  double previous = 0.0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const Json& pair = json[i];
    if (!pair.is_array() || pair.size() != 2 || !pair[0].is_number())
      fail(name + " entries must be [value, count] pairs");
    const double value = pair[0].as_double();
    if (i > 0 && !(value > previous))
      fail(name + " values must be strictly ascending");
    if (!pair[1].is_integer() || pair[1].as_int64() < 1)
      fail(name + " counts must be integers >= 1");
    const std::int64_t count = pair[1].as_int64();
    if (count > expected_total - total)
      fail(name + " holds more samples than \"terminated\" runs");
    total += count;
    for (std::int64_t c = 0; c < count; ++c) samples.add(value);
    previous = value;
  }
  if (total != expected_total)
    fail(name + " must hold one sample per \"terminated\" run");
  return samples;
}

Json interval_to_json(const ConfidenceInterval& interval) {
  Json pair = Json::array();
  pair.push_back(interval.lower);
  pair.push_back(interval.upper);
  return pair;
}

ConfidenceInterval interval_from_json(const Json& json) {
  if (!json.is_array() || json.size() != 2 || !json[0].is_number() ||
      !json[1].is_number())
    fail("each predicate interval must be a [lower, upper] number pair");
  ConfidenceInterval interval;
  interval.lower = json[0].as_double();
  interval.upper = json[1].as_double();
  if (interval.lower > interval.upper)
    fail("predicate interval has lower > upper");
  return interval;
}

}  // namespace

Json campaign_result_to_json(const CampaignResult& result) {
  Json j = Json::object();
  j.set("runs", result.runs);
  j.set("runs_requested", result.runs_requested);
  j.set("agreement_violations", result.agreement_violations);
  j.set("integrity_violations", result.integrity_violations);
  j.set("irrevocability_violations", result.irrevocability_violations);
  j.set("terminated", result.terminated);
  j.set("last_decision_rounds", samples_to_json(result.last_decision_rounds));
  j.set("first_decision_rounds", samples_to_json(result.first_decision_rounds));

  Json holds = Json::array();
  for (const int count : result.predicate_holds) holds.push_back(count);
  j.set("predicate_holds", std::move(holds));
  Json names = Json::array();
  for (const std::string& name : result.predicate_names) names.push_back(name);
  j.set("predicate_names", std::move(names));
  Json intervals = Json::array();
  for (const ConfidenceInterval& interval : result.predicate_intervals)
    intervals.push_back(interval_to_json(interval));
  j.set("predicate_intervals", std::move(intervals));
  j.set("ci_confidence", result.ci_confidence);

  Json violations = Json::array();
  for (const std::string& violation : result.violations)
    violations.push_back(violation);
  j.set("violations", std::move(violations));
  j.set("cancelled", result.cancelled);
  j.set("stopped_early", result.stopped_early);
  return j;
}

CampaignResult campaign_result_from_json(const Json& json) {
  if (!json.is_object()) fail("must be a JSON object");
  check_known_keys(
      json, {"runs", "runs_requested", "agreement_violations",
             "integrity_violations", "irrevocability_violations", "terminated",
             "last_decision_rounds", "first_decision_rounds", "predicate_holds",
             "predicate_names", "predicate_intervals", "ci_confidence",
             "violations", "cancelled", "stopped_early"});
  CampaignResult result;
  result.runs = require_count(json, "runs");
  result.runs_requested = require_count(json, "runs_requested");
  result.agreement_violations = require_count(json, "agreement_violations");
  result.integrity_violations = require_count(json, "integrity_violations");
  result.irrevocability_violations =
      require_count(json, "irrevocability_violations");
  result.terminated = require_count(json, "terminated");
  result.last_decision_rounds =
      samples_from_json(require(json, "last_decision_rounds"),
                        "last_decision_rounds", result.terminated);
  result.first_decision_rounds =
      samples_from_json(require(json, "first_decision_rounds"),
                        "first_decision_rounds", result.terminated);

  const Json& holds = require(json, "predicate_holds");
  if (!holds.is_array()) fail("\"predicate_holds\" must be an array");
  for (const Json& count : holds.items()) {
    if (!count.is_integer() || count.as_int() < 0)
      fail("\"predicate_holds\" entries must be integers >= 0");
    result.predicate_holds.push_back(count.as_int());
  }
  const Json& names = require(json, "predicate_names");
  if (!names.is_array()) fail("\"predicate_names\" must be an array");
  for (const Json& name : names.items()) {
    if (!name.is_string()) fail("\"predicate_names\" entries must be strings");
    result.predicate_names.push_back(name.as_string());
  }
  if (result.predicate_names.size() != result.predicate_holds.size())
    fail("\"predicate_names\" and \"predicate_holds\" lengths differ");
  const Json& intervals = require(json, "predicate_intervals");
  if (!intervals.is_array()) fail("\"predicate_intervals\" must be an array");
  for (const Json& interval : intervals.items())
    result.predicate_intervals.push_back(interval_from_json(interval));
  if (!result.predicate_intervals.empty() &&
      result.predicate_intervals.size() != result.predicate_holds.size())
    fail("\"predicate_intervals\" must be empty or match \"predicate_holds\"");

  result.ci_confidence = require_double(json, "ci_confidence");
  if (result.ci_confidence < 0.0 || result.ci_confidence >= 1.0)
    fail("\"ci_confidence\" must be in [0, 1)");
  const Json& violations = require(json, "violations");
  if (!violations.is_array()) fail("\"violations\" must be an array");
  for (const Json& violation : violations.items()) {
    if (!violation.is_string()) fail("\"violations\" entries must be strings");
    result.violations.push_back(violation.as_string());
  }
  result.cancelled = require_bool(json, "cancelled");
  result.stopped_early = require_bool(json, "stopped_early");
  return result;
}

Json campaign_results_to_json(const std::vector<CampaignResult>& results) {
  Json array = Json::array();
  for (const CampaignResult& result : results)
    array.push_back(campaign_result_to_json(result));
  return array;
}

std::vector<CampaignResult> campaign_results_from_json(const Json& json) {
  if (!json.is_array())
    throw JsonError("campaign result list: must be a JSON array");
  std::vector<CampaignResult> results;
  results.reserve(json.size());
  for (const Json& result : json.items())
    results.push_back(campaign_result_from_json(result));
  return results;
}

}  // namespace hoval
