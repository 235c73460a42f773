/// CampaignResult JSON serialisation: real campaign results — fixed-size,
/// adaptive, violating — round-trip losslessly (modulo the documented
/// trace elision), serialise deterministically, and every off-schema
/// document is rejected with a JsonError.

#include <gtest/gtest.h>

#include <string>

#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "sim/result_json.hpp"
#include "util/json.hpp"

namespace hoval {
namespace {

ScenarioSpec clean_spec() {
  ScenarioSpec spec;
  spec.algorithm = component("ate", {{"n", 12}, {"alpha", 2}});
  spec.adversaries = {component("corrupt", {{"alpha", 2}}),
                      component("good-rounds", {{"period", 5}})};
  spec.values = component("random", {{"distinct", 3}});
  spec.predicates = {component("p-alpha")};
  spec.campaign.runs = 48;
  spec.campaign.rounds = 35;
  spec.campaign.seed = 0xD15B;
  return spec;
}

ScenarioSpec violating_spec() {
  ScenarioSpec spec;
  spec.algorithm = component("ate", {{"n", 9}, {"alpha", 1}});
  spec.adversaries = {component("split", {{"alpha", 4}})};
  spec.values = component("split", {{"lo", 0}, {"hi", 1}});
  spec.campaign.runs = 24;
  spec.campaign.rounds = 40;
  spec.campaign.seed = 7;
  return spec;
}

/// Round-trip + re-serialisation determinism: parse(dump) must reproduce
/// the document byte for byte (the property the --out byte-diffing in CI
/// stands on).
void expect_lossless(const CampaignResult& result) {
  const Json document = campaign_result_to_json(result);
  const CampaignResult reparsed = campaign_result_from_json(document);
  const Json redumped = campaign_result_to_json(reparsed);
  EXPECT_EQ(document.dump(2), redumped.dump(2));
  EXPECT_TRUE(document == redumped);

  EXPECT_EQ(result.runs, reparsed.runs);
  EXPECT_EQ(result.runs_requested, reparsed.runs_requested);
  EXPECT_EQ(result.agreement_violations, reparsed.agreement_violations);
  EXPECT_EQ(result.integrity_violations, reparsed.integrity_violations);
  EXPECT_EQ(result.irrevocability_violations,
            reparsed.irrevocability_violations);
  EXPECT_EQ(result.terminated, reparsed.terminated);
  EXPECT_EQ(result.predicate_holds, reparsed.predicate_holds);
  EXPECT_EQ(result.predicate_names, reparsed.predicate_names);
  EXPECT_EQ(result.violations, reparsed.violations);
  EXPECT_EQ(result.cancelled, reparsed.cancelled);
  EXPECT_EQ(result.stopped_early, reparsed.stopped_early);
  EXPECT_EQ(result.safety_clean(), reparsed.safety_clean());
  EXPECT_EQ(result.last_decision_rounds.count(),
            reparsed.last_decision_rounds.count());
  EXPECT_EQ(result.first_decision_rounds.count(),
            reparsed.first_decision_rounds.count());
  // SampleSet statistics are order-insensitive, and the wire form is the
  // sorted canonicalisation — the quantiles must survive exactly.
  if (result.last_decision_rounds.count() > 0) {
    EXPECT_EQ(result.last_decision_rounds.median(),
              reparsed.last_decision_rounds.median());
    EXPECT_EQ(result.last_decision_rounds.max(),
              reparsed.last_decision_rounds.max());
  }
  ASSERT_EQ(result.predicate_intervals.size(),
            reparsed.predicate_intervals.size());
  for (std::size_t i = 0; i < result.predicate_intervals.size(); ++i) {
    EXPECT_EQ(result.predicate_intervals[i].lower,
              reparsed.predicate_intervals[i].lower);
    EXPECT_EQ(result.predicate_intervals[i].upper,
              reparsed.predicate_intervals[i].upper);
  }
}

TEST(ResultJson, FixedCampaignRoundTripsLosslessly) {
  expect_lossless(run_scenario(clean_spec()));
}

TEST(ResultJson, AdaptiveCampaignRoundTripsLosslessly) {
  ScenarioSpec spec = clean_spec();
  spec.campaign.runs = 400;
  spec.campaign.adaptive.enabled = true;
  spec.campaign.adaptive.min_runs = 32;
  spec.campaign.adaptive.ci_epsilon = 0.08;
  const CampaignResult result = run_scenario(spec);
  EXPECT_GT(result.ci_confidence, 0.0);
  expect_lossless(result);
}

TEST(ResultJson, ViolatingCampaignRoundTripsLosslessly) {
  const CampaignResult result = run_scenario(violating_spec());
  ASSERT_GT(result.agreement_violations, 0);
  ASSERT_FALSE(result.violations.empty());
  expect_lossless(result);
}

TEST(ResultJson, TracesAreElidedByDesign) {
  ScenarioSpec spec = violating_spec();
  spec.campaign.keep_traces = TraceRetention::kViolations;
  const CampaignResult result = run_scenario(spec);
  ASSERT_FALSE(result.traces.empty());
  const CampaignResult reparsed =
      campaign_result_from_json(campaign_result_to_json(result));
  EXPECT_TRUE(reparsed.traces.empty());
  // Everything that is not a trace still made it across.
  EXPECT_EQ(result.agreement_violations, reparsed.agreement_violations);
  EXPECT_EQ(result.violations, reparsed.violations);
}

TEST(ResultJson, SerialisationIsIndependentOfAccessorHistory) {
  // SampleSet sorts its store lazily when quantiles are read; the wire
  // form must not depend on whether summary() ran first.
  const CampaignResult untouched = run_scenario(clean_spec());
  CampaignResult probed = run_scenario(clean_spec());
  (void)probed.summary();  // forces the lazy sort
  EXPECT_EQ(campaign_result_to_json(untouched).dump(2),
            campaign_result_to_json(probed).dump(2));
}

TEST(ResultJson, ResultsArrayRoundTrips) {
  const std::vector<CampaignResult> results = {run_scenario(clean_spec()),
                                               run_scenario(violating_spec())};
  const Json documents = campaign_results_to_json(results);
  const std::vector<CampaignResult> reparsed =
      campaign_results_from_json(documents);
  ASSERT_EQ(reparsed.size(), results.size());
  EXPECT_EQ(campaign_results_to_json(reparsed).dump(2), documents.dump(2));
  EXPECT_THROW(campaign_results_from_json(Json::object()), JsonError);
}

TEST(ResultJson, OffSchemaDocumentsAreRejected) {
  const Json valid = campaign_result_to_json(run_scenario(clean_spec()));

  Json extra = valid;
  extra.set("surprise", 1);
  EXPECT_THROW(campaign_result_from_json(extra), JsonError);

  // Each required key, removed in turn, must fail the parse — a document
  // with a missing aggregate is not a smaller result, it is a broken one.
  for (const auto& member : valid.members()) {
    Json pruned = Json::object();
    for (const auto& keep : valid.members())
      if (keep.first != member.first) pruned.set(keep.first, keep.second);
    EXPECT_THROW(campaign_result_from_json(pruned), JsonError)
        << "missing " << member.first;
  }

  Json negative = valid;
  negative.set("runs", -3);
  EXPECT_THROW(campaign_result_from_json(negative), JsonError);

  Json mistyped = valid;
  mistyped.set("violations", "not an array");
  EXPECT_THROW(campaign_result_from_json(mistyped), JsonError);

  Json misaligned = valid;
  Json names = Json::array();
  names.push_back(Json("only-one"));
  names.push_back(Json("two"));
  names.push_back(Json("three"));
  misaligned.set("predicate_names", names);
  EXPECT_THROW(campaign_result_from_json(misaligned), JsonError);

  Json not_object = Json::array();
  EXPECT_THROW(campaign_result_from_json(not_object), JsonError);
}

TEST(ResultJson, SampleSetsAreCountedAscendingPairs) {
  CampaignResult result;
  result.runs = 7;
  result.runs_requested = 7;
  result.terminated = 6;
  for (const double round : {9.0, 4.0, 4.0, 12.5, 4.0, 9.0})
    result.last_decision_rounds.add(round);
  for (int i = 0; i < 6; ++i) result.first_decision_rounds.add(4.0);
  const Json document = campaign_result_to_json(result);
  EXPECT_EQ(document.find("last_decision_rounds")->dump(),
            "[[4.0,3],[9.0,2],[12.5,1]]");
  EXPECT_EQ(document.find("first_decision_rounds")->dump(), "[[4.0,6]]");
  expect_lossless(result);

  // A result with no terminated run has empty sample sets.
  CampaignResult none;
  none.runs = 3;
  EXPECT_EQ(campaign_result_to_json(none).find("last_decision_rounds")->dump(), "[]");
  expect_lossless(none);
}

TEST(ResultJson, MalformedSampleSetsAreRejected) {
  CampaignResult result;
  result.runs = 4;
  result.terminated = 4;
  for (int i = 0; i < 4; ++i) {
    result.last_decision_rounds.add(3.0 + i % 2);
    result.first_decision_rounds.add(3.0);
  }
  const Json valid = campaign_result_to_json(result);
  ASSERT_NO_THROW(campaign_result_from_json(valid));

  const auto with_samples = [&](const char* samples) {
    Json document = valid;
    document.set("last_decision_rounds", Json::parse(samples));
    return document;
  };
  const char* malformed[] = {
      "[[4.0,2],[3.0,2]]",      // unsorted values
      "[[3.0,2],[3.0,2]]",      // duplicate value
      "[[3.0,0],[4.0,4]]",      // count < 1
      "[[3.0,-2],[4.0,6]]",     // negative count
      "[[3.0,2.0],[4.0,2]]",    // non-integral count (a double)
      "[[3.0,1.5],[4.0,2.5]]",  // fractional counts
      "[3.0,3.0,4.0,4.0]",      // the old flat sample array
      "[[3.0,2,1],[4.0,2]]",    // not a pair
      "[[\"3\",2],[4.0,2]]",    // value not a number
      "[[3.0,2],[4.0,1]]",      // fewer samples than terminated runs
      "[[3.0,2],[4.0,3]]",      // more samples than terminated runs
      "[[3.0,9223372036854775807]]",  // absurd count
      "{}",                     // not an array
  };
  for (const char* samples : malformed)
    EXPECT_THROW(campaign_result_from_json(with_samples(samples)), JsonError)
        << samples;
  EXPECT_NO_THROW(campaign_result_from_json(with_samples("[[3.0,2],[4.0,2]]")));
}

}  // namespace
}  // namespace hoval
