/// Streaming predicate evaluation must be indistinguishable from the
/// whole-trace path: for every predicate that offers a stream, feeding a
/// trace round by round through reset()/on_round()/finish() yields the
/// *same verdict object* — holds, violation round, witnesses and detail
/// text — as evaluate() on that trace.  Randomized traces cover clean,
/// lightly corrupted and heavily corrupted prefixes, plus the empty trace
/// and stream reuse across runs.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "predicates/liveness.hpp"
#include "predicates/predicate.hpp"
#include "predicates/safety.hpp"
#include "util/rng.hpp"

namespace hoval {
namespace {

/// A random trace over n processes: per (p, r), HO keeps each sender with
/// probability p_ho and SHO keeps each HO member with probability p_safe.
ComputationTrace random_trace(int n, Round rounds, double p_ho, double p_safe,
                              Rng& rng) {
  ComputationTrace trace(n);
  for (Round r = 1; r <= rounds; ++r) {
    std::vector<HoRecord> records;
    records.reserve(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p) {
      HoRecord rec{ProcessSet(n), ProcessSet(n)};
      for (ProcessId q = 0; q < n; ++q) {
        if (!rng.chance(p_ho)) continue;
        rec.ho.insert(q);
        if (rng.chance(p_safe)) rec.sho.insert(q);
      }
      records.push_back(std::move(rec));
    }
    trace.append_round(std::move(records));
  }
  return trace;
}

void expect_same_verdict(const PredicateVerdict& streamed,
                         const PredicateVerdict& whole,
                         const std::string& context) {
  EXPECT_EQ(streamed.holds, whole.holds) << context;
  EXPECT_EQ(streamed.violation_round, whole.violation_round) << context;
  EXPECT_EQ(streamed.witnesses, whole.witnesses) << context;
  EXPECT_EQ(streamed.detail, whole.detail) << context;
}

/// Streams `trace` through `stream` and compares against evaluate().
void check_equivalence(const Predicate& predicate, PredicateStream& stream,
                       const ComputationTrace& trace,
                       const std::string& context) {
  stream.reset(trace.universe_size());
  for (Round r = 1; r <= trace.round_count(); ++r) stream.on_round(trace.round(r));
  expect_same_verdict(stream.finish(), predicate.evaluate(trace), context);
}

std::vector<std::shared_ptr<Predicate>> streaming_predicates(int n) {
  return {
      std::make_shared<PAlpha>(0),
      std::make_shared<PAlpha>(2),
      std::make_shared<PAlpha>(n),
      std::make_shared<PPermAlpha>(1),
      std::make_shared<PPermAlpha>(n),
      std::make_shared<PBenign>(),
      std::make_shared<PUSafe>(n, n / 2.0, n / 2.0 + 1, 2),
      std::make_shared<SyncByzantinePredicate>(2),
      std::make_shared<AsyncByzantinePredicate>(2),
  };
}

TEST(PredicateStreaming, MatchesEvaluateOnRandomizedTraces) {
  const int n = 9;
  Rng rng(0x57AE);
  const auto predicates = streaming_predicates(n);
  // Corruption regimes from pristine to hostile, so both the holding and
  // the failing paths of every predicate are exercised.
  const struct { double p_ho, p_safe; } regimes[] = {
      {1.0, 1.0}, {1.0, 0.9}, {0.9, 0.7}, {0.6, 0.3}, {1.0, 0.0}};
  for (const auto& regime : regimes) {
    for (int i = 0; i < 8; ++i) {
      const auto trace =
          random_trace(n, /*rounds=*/12, regime.p_ho, regime.p_safe, rng);
      for (const auto& predicate : predicates) {
        auto stream = predicate->make_stream();
        ASSERT_NE(stream, nullptr) << predicate->name();
        check_equivalence(*predicate, *stream, trace,
                          predicate->name() + " @ p_safe=" +
                              std::to_string(regime.p_safe));
      }
    }
  }
}

TEST(PredicateStreaming, EmptyTraceMatches) {
  for (const auto& predicate : streaming_predicates(5)) {
    auto stream = predicate->make_stream();
    ASSERT_NE(stream, nullptr) << predicate->name();
    check_equivalence(*predicate, *stream, ComputationTrace(5),
                      predicate->name() + " on the empty trace");
  }
}

TEST(PredicateStreaming, StreamIsReusableAcrossRuns) {
  // One stream instance, reset between traces, must behave like a fresh
  // stream every time — this is exactly how campaign workers use it.
  const int n = 7;
  Rng rng(0xF00);
  for (const auto& predicate : streaming_predicates(n)) {
    auto stream = predicate->make_stream();
    ASSERT_NE(stream, nullptr) << predicate->name();
    for (int run = 0; run < 6; ++run) {
      const auto trace = random_trace(n, 8, 0.9, run % 2 ? 0.4 : 1.0, rng);
      check_equivalence(*predicate, *stream, trace,
                        predicate->name() + " run " + std::to_string(run));
    }
  }
}

TEST(PredicateStreaming, LivenessPredicatesFallBackToEvaluate) {
  // The eventual predicates keep the whole-trace path (no stream): callers
  // must get nullptr and fall back, per the make_stream() contract.
  EXPECT_EQ(PALive(9, 6.0, 7.0, 2.0).make_stream(), nullptr);
  EXPECT_EQ(PULive(9, 6.0, 7.0, 2).make_stream(), nullptr);
}

}  // namespace
}  // namespace hoval
