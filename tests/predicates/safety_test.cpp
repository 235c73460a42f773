#include "predicates/safety.hpp"

#include <gtest/gtest.h>

namespace hoval {
namespace {

HoRecord rec(int n, std::vector<ProcessId> ho, std::vector<ProcessId> sho) {
  return HoRecord{ProcessSet::of(n, ho), ProcessSet::of(n, sho)};
}

ComputationTrace clean_trace(int n, int rounds) {
  ComputationTrace trace(n);
  for (int r = 0; r < rounds; ++r) {
    std::vector<HoRecord> records;
    for (int p = 0; p < n; ++p)
      records.push_back(HoRecord{ProcessSet::universe(n), ProcessSet::universe(n)});
    trace.append_round(std::move(records));
  }
  return trace;
}

TEST(PAlphaPred, HoldsOnCleanTrace) {
  const auto trace = clean_trace(4, 5);
  EXPECT_TRUE(PAlpha(0).evaluate(trace).holds);
  EXPECT_TRUE(PAlpha(2).evaluate(trace).holds);
}

TEST(PAlphaPred, DetectsExcessCorruption) {
  ComputationTrace trace(3);
  // Process 0 has AHO = {1, 2} at round 1: |AHO| = 2.
  trace.append_round({rec(3, {0, 1, 2}, {0}), rec(3, {0, 1, 2}, {0, 1, 2}),
                      rec(3, {0, 1, 2}, {0, 1, 2})});
  EXPECT_TRUE(PAlpha(2).evaluate(trace).holds);
  const auto verdict = PAlpha(1).evaluate(trace);
  EXPECT_FALSE(verdict.holds);
  EXPECT_EQ(verdict.violation_round, 1);
  EXPECT_NE(verdict.detail.find("AHO"), std::string::npos);
}

TEST(PAlphaPred, ChecksEveryRound) {
  ComputationTrace trace(2);
  trace.append_round({rec(2, {0, 1}, {0, 1}), rec(2, {0, 1}, {0, 1})});
  trace.append_round({rec(2, {0, 1}, {0}), rec(2, {0, 1}, {0, 1})});
  const auto verdict = PAlpha(0).evaluate(trace);
  EXPECT_FALSE(verdict.holds);
  EXPECT_EQ(verdict.violation_round, 2);
}

TEST(PPermAlphaPred, BoundsAlteredSpan) {
  ComputationTrace trace(4);
  // Round 1: sender 1 corrupted towards process 0.
  trace.append_round({rec(4, {0, 1, 2, 3}, {0, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3})});
  // Round 2: sender 2 corrupted towards process 3.
  trace.append_round({rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 3})});
  // AS = {1, 2} across the run.
  EXPECT_TRUE(PPermAlpha(2).evaluate(trace).holds);
  EXPECT_FALSE(PPermAlpha(1).evaluate(trace).holds);
}

TEST(PPermAlphaPred, PermDoesNotBoundPerReceiverCounts) {
  // Note P_alpha bounds per-receiver-per-round; P_perm bounds the span.
  ComputationTrace trace(4);
  trace.append_round({rec(4, {0, 1, 2, 3}, {0, 3}),  // AHO = {1,2}
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3})});
  EXPECT_TRUE(PPermAlpha(2).evaluate(trace).holds);
  EXPECT_TRUE(PAlpha(2).evaluate(trace).holds);
  EXPECT_FALSE(PAlpha(1).evaluate(trace).holds);
}

TEST(PBenignPred, HoldsIffNoCorruption) {
  EXPECT_TRUE(PBenign().evaluate(clean_trace(3, 4)).holds);

  ComputationTrace trace(2);
  // Omission only: HO = SHO = {0} — still benign.
  trace.append_round({rec(2, {0}, {0}), rec(2, {0, 1}, {0, 1})});
  EXPECT_TRUE(PBenign().evaluate(trace).holds);

  trace.append_round({rec(2, {0, 1}, {0}), rec(2, {0, 1}, {0, 1})});
  EXPECT_FALSE(PBenign().evaluate(trace).holds);
}

TEST(PUSafePred, BoundFormula) {
  // max(n + 2a - E - 1, T, a) with n=10, a=3, T=E=8: max(10+6-8-1, 8, 3)=8.
  const PUSafe pred(10, 8.0, 8.0, 3);
  EXPECT_DOUBLE_EQ(pred.bound(), 8.0);
  // With small T the first term dominates: n=10, a=3, E=6, T=2 ->
  // max(9, 2, 3) = 9.
  EXPECT_DOUBLE_EQ(PUSafe(10, 2.0, 6.0, 3).bound(), 9.0);
  // With tiny alpha and big E, T dominates.
  EXPECT_DOUBLE_EQ(PUSafe(10, 7.0, 9.0, 0).bound(), 7.0);
}

TEST(PUSafePred, RequiresStrictlyMoreThanBound) {
  const int n = 4;
  const PUSafe pred(n, 2.0, 3.0, 0);  // bound = max(4-3-1, 2, 0) = 2
  ComputationTrace trace(n);
  std::vector<HoRecord> good;
  for (int p = 0; p < n; ++p)
    good.push_back(rec(n, {0, 1, 2}, {0, 1, 2}));  // |SHO| = 3 > 2
  trace.append_round(good);
  EXPECT_TRUE(pred.evaluate(trace).holds);

  std::vector<HoRecord> bad;
  for (int p = 0; p < n; ++p) bad.push_back(rec(n, {0, 1}, {0, 1}));  // = 2
  trace.append_round(bad);
  const auto verdict = pred.evaluate(trace);
  EXPECT_FALSE(verdict.holds);
  EXPECT_EQ(verdict.violation_round, 2);
}

TEST(SyncByzantinePred, SafeKernelBound) {
  // Safe kernel of the whole run must keep n - f members.
  ComputationTrace trace(4);
  trace.append_round({rec(4, {0, 1, 2, 3}, {0, 1, 2}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3})});
  // SK = {0,1,2}: holds for f >= 1.
  EXPECT_TRUE(SyncByzantinePredicate(1).evaluate(trace).holds);
  EXPECT_TRUE(SyncByzantinePredicate(2).evaluate(trace).holds);
  EXPECT_FALSE(SyncByzantinePredicate(0).evaluate(trace).holds);
}

TEST(AsyncByzantinePred, RequiresBothClauses) {
  ComputationTrace trace(4);
  trace.append_round({rec(4, {0, 1, 2}, {0, 1, 2}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3})});
  // |HO| >= 3 for everyone: f=1 liveness fine, AS empty.
  EXPECT_TRUE(AsyncByzantinePredicate(1).evaluate(trace).holds);
  EXPECT_FALSE(AsyncByzantinePredicate(0).evaluate(trace).holds);

  // Add a round with one corrupted sender: AS = {3}.
  trace.append_round({rec(4, {0, 1, 2, 3}, {0, 1, 2}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3}),
                      rec(4, {0, 1, 2, 3}, {0, 1, 2, 3})});
  EXPECT_TRUE(AsyncByzantinePredicate(1).evaluate(trace).holds);
}

}  // namespace
}  // namespace hoval
