#pragma once

/// \file result_json.hpp
/// Lossless JSON serialisation for CampaignResult — the other half of the
/// wire format the scenario layer already has for specs (scenario/spec.hpp
/// round-trips ScenarioSpec through util/json.hpp).  With both halves a
/// campaign becomes fully serialisable: a dispatcher ships a resolved
/// ScenarioSpec to a worker process and gets the CampaignResult document
/// back (src/dispatch/), and `hoval_cli --sweep --out` / `hoval_dispatch
/// --out` write merged sweep results that can be diffed byte-for-byte.
///
/// Round-trip contract: campaign_result_from_json(campaign_result_to_json
/// (r)) reproduces every aggregate field of `r` exactly — counts, sample
/// sets (canonicalised to ascending [value, count] pairs, e.g. [[4.0, 1000]];
/// SampleSet statistics are order-insensitive), predicate
/// holds/names/intervals, violation strings
/// and flags.  Doubles survive exactly (util/json.hpp serialises the
/// shortest representation that parses back to the same value).  The one
/// deliberate exception: retained traces (CampaignResult::traces) are
/// elided — they are a debugging payload that scales with runs x rounds x
/// n, not an aggregate, and every consumer of serialised results works on
/// aggregates.  Parsing is strict: unknown keys, missing keys, type
/// mismatches and mis-aligned predicate arrays throw JsonError rather than
/// yielding a best-effort result (no accept-then-misparse).

#include <vector>

#include "sim/campaign.hpp"
#include "util/json.hpp"

namespace hoval {

/// Serialises the aggregate fields of one campaign result (traces elided,
/// see the file comment).  Sample sets are emitted as ascending
/// [value, count] pairs, so two
/// results that are equal as aggregates serialise to identical bytes
/// regardless of the order their samples were accumulated in.
Json campaign_result_to_json(const CampaignResult& result);

/// Parses a campaign-result document produced by campaign_result_to_json.
/// \throws JsonError on unknown/missing keys, type mismatches, negative
/// counts, predicate arrays of inconsistent lengths, or sample sets that
/// are not ascending [value, count] pairs with integral counts >= 1
/// totalling one sample per terminated run.
CampaignResult campaign_result_from_json(const Json& json);

/// A sweep's merged results as one JSON array, in point order.
Json campaign_results_to_json(const std::vector<CampaignResult>& results);

/// Parses an array of campaign-result documents.  \throws JsonError.
std::vector<CampaignResult> campaign_results_from_json(const Json& json);

}  // namespace hoval
