#include "model/reception.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/check.hpp"

namespace hoval {
namespace {

ReceptionVector make_vector() {
  // Senders: 0->est(5), 1->est(5), 2->est(7), 3->vote(5), 4->vote(?),
  // 5..7 silent.
  ReceptionVector mu(8);
  mu.set(0, make_estimate(5));
  mu.set(1, make_estimate(5));
  mu.set(2, make_estimate(7));
  mu.set(3, make_vote(5));
  mu.set(4, make_question_vote());
  return mu;
}

TEST(Reception, SupportIsHeardOfSet) {
  const auto mu = make_vector();
  EXPECT_EQ(mu.support(), ProcessSet::of(8, {0, 1, 2, 3, 4}));
  EXPECT_EQ(mu.count_received(), 5);
}

TEST(Reception, GetAndUnset) {
  auto mu = make_vector();
  ASSERT_TRUE(mu.get(0).has_value());
  EXPECT_EQ(*mu.get(0), make_estimate(5));
  EXPECT_FALSE(mu.get(6).has_value());
  mu.unset(0);
  EXPECT_FALSE(mu.get(0).has_value());
  EXPECT_EQ(mu.count_received(), 4);
}

TEST(Reception, OutOfRangeThrows) {
  auto mu = make_vector();
  EXPECT_THROW(mu.set(8, make_estimate(0)), PreconditionError);
  EXPECT_THROW((void)mu.get(-1), PreconditionError);
}

TEST(Reception, CountsByKindAndPayload) {
  const auto mu = make_vector();
  EXPECT_EQ(mu.count_kind(MsgKind::kEstimate), 3);
  EXPECT_EQ(mu.count_kind(MsgKind::kVote), 2);
  EXPECT_EQ(mu.count_payload(MsgKind::kEstimate, 5), 2);
  EXPECT_EQ(mu.count_payload(MsgKind::kEstimate, 7), 1);
  EXPECT_EQ(mu.count_payload(MsgKind::kEstimate, 9), 0);
  // Votes with payload 5 are not estimates: strict kind separation.
  EXPECT_EQ(mu.count_payload(MsgKind::kVote, 5), 1);
  EXPECT_EQ(mu.count_question_votes(), 1);
}

TEST(Reception, Histogram) {
  const auto mu = make_vector();
  const auto est_hist = mu.payload_histogram(MsgKind::kEstimate);
  const PayloadHistogram expected_est{{5, 2}, {7, 1}};
  EXPECT_EQ(est_hist, expected_est);
  const auto vote_hist = mu.payload_histogram(MsgKind::kVote);
  // '?' votes carry no payload.
  const PayloadHistogram expected_votes{{5, 1}};
  EXPECT_EQ(vote_hist, expected_votes);
}

TEST(Reception, SmallestMostFrequentPicksPlurality) {
  const auto mu = make_vector();
  EXPECT_EQ(mu.smallest_most_frequent(MsgKind::kEstimate), 5);
}

TEST(Reception, SmallestMostFrequentBreaksTiesDownward) {
  ReceptionVector mu(4);
  mu.set(0, make_estimate(9));
  mu.set(1, make_estimate(2));
  mu.set(2, make_estimate(9));
  mu.set(3, make_estimate(2));
  // 2 and 9 both appear twice: the smallest most often received value is 2.
  EXPECT_EQ(mu.smallest_most_frequent(MsgKind::kEstimate), 2);
}

TEST(Reception, SmallestMostFrequentEmpty) {
  ReceptionVector mu(4);
  EXPECT_FALSE(mu.smallest_most_frequent(MsgKind::kEstimate).has_value());
  mu.set(0, make_question_vote());
  // Only a payload-less vote: still no estimate value.
  EXPECT_FALSE(mu.smallest_most_frequent(MsgKind::kEstimate).has_value());
  EXPECT_FALSE(mu.smallest_most_frequent(MsgKind::kVote).has_value());
}

TEST(Reception, PayloadExceedingThreshold) {
  const auto mu = make_vector();
  EXPECT_EQ(mu.payload_exceeding(MsgKind::kEstimate, 1.0), 5);
  EXPECT_FALSE(mu.payload_exceeding(MsgKind::kEstimate, 2.0).has_value());
  // Strict comparison: count 2 is not > 2.
  EXPECT_FALSE(mu.payload_exceeding(MsgKind::kEstimate, 2).has_value());
}

TEST(Reception, PayloadExceedingPicksSmallest) {
  ReceptionVector mu(6);
  for (ProcessId q = 0; q < 3; ++q) mu.set(q, make_estimate(8));
  for (ProcessId q = 3; q < 6; ++q) mu.set(q, make_estimate(1));
  EXPECT_EQ(mu.payload_exceeding(MsgKind::kEstimate, 2.0), 1);
}

TEST(Reception, SendersOfExactMessage) {
  const auto mu = make_vector();
  EXPECT_EQ(mu.senders_of(make_estimate(5)), ProcessSet::of(8, {0, 1}));
  EXPECT_EQ(mu.senders_of(make_question_vote()), ProcessSet::of(8, {4}));
  EXPECT_EQ(mu.senders_of(make_estimate(42)), ProcessSet(8));
}

TEST(Reception, FractionalThresholdComparisons) {
  // Thresholds like 2n/3 are fractional; counts compare strictly.
  ReceptionVector mu(3);
  mu.set(0, make_estimate(1));
  mu.set(1, make_estimate(1));
  // 2 > 2*3/3 = 2 is false; 2 > 5/3 is true.
  EXPECT_FALSE(mu.payload_exceeding(MsgKind::kEstimate, 2.0).has_value());
  EXPECT_EQ(mu.payload_exceeding(MsgKind::kEstimate, 5.0 / 3.0), 1);
}

// --- PayloadCounts ----------------------------------------------------------

/// Every counted value that is absent from `counts` must read 0; `present`
/// lists the values (with multiplicities) that may be nonzero.
void expect_absent_values_read_zero(
    const PayloadCounts& counts, const std::vector<std::pair<Value, int>>& present) {
  for (Value v = 0; v < 64; ++v) {
    int want = 0;
    for (const auto& [value, count] : present)
      if (value == v) want = count;
    EXPECT_EQ(counts.count(v), want) << "value " << v;
  }
}

PayloadCounts counts_of(const std::vector<Value>& values) {
  PayloadCounts counts;
  for (const Value v : values) counts.add(v);
  return counts;
}

TEST(PayloadCountsTest, ClearZeroesEveryCounter) {
  PayloadCounts counts = counts_of({0, 3, 3, 63, 17, -5, 999});
  counts.clear();
  expect_absent_values_read_zero(counts, {});
  EXPECT_EQ(counts.count(-5), 0);
  EXPECT_EQ(counts.count(999), 0);
  for (const Value v : {0, 3, 17, 63}) {
    counts.add(v);
    EXPECT_EQ(counts.count(v), 1) << "value " << v;
  }
}

TEST(PayloadCountsTest, AssignFromASmallerSetZeroesVacatedCounters) {
  PayloadCounts counts = counts_of({1, 1, 2, 9, 9, 9, 40, 70});
  const PayloadCounts smaller = counts_of({2, 2, 5});
  counts.assign(smaller);
  expect_absent_values_read_zero(counts, {{2, 2}, {5, 1}});
  EXPECT_EQ(counts.count(70), 0);
  for (const Value v : {1, 9, 40}) {
    counts.add(v);
    EXPECT_EQ(counts.count(v), 1) << "value " << v;
  }
  // And from an empty set.
  counts.assign(PayloadCounts{});
  expect_absent_values_read_zero(counts, {});
}

TEST(PayloadCountsTest, RemovingDownToZeroLeavesNoResidue) {
  PayloadCounts counts = counts_of({4, 4, 4, 0, 63});
  for (int i = 0; i < 3; ++i) counts.remove(4);
  counts.remove(63);
  expect_absent_values_read_zero(counts, {{0, 1}});
  counts.add(4);
  counts.add(63);
  EXPECT_EQ(counts.count(4), 1);
  EXPECT_EQ(counts.count(63), 1);
  std::vector<std::pair<Value, int>> listed;
  counts.for_each([&](Value v, int count) { listed.emplace_back(v, count); });
  EXPECT_EQ(listed, (std::vector<std::pair<Value, int>>{{0, 1}, {4, 1}, {63, 1}}));
  // Removing an absent value is an invariant breach, not a silent wrap.
  EXPECT_THROW(counts.remove(5), InvariantError);
}

}  // namespace
}  // namespace hoval
