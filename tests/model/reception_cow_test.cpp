/// Copy-on-write aliasing rules of the delivery kernel.
///
/// A receiver bound to a shared base vector stores only the senders it
/// overrides and derives its aggregates lazily; these tests pin that it is
/// observationally identical to an owned vector fed the same operations,
/// that copies flatten (and so outlive the round), that moving or copying
/// a DeliveredRound keeps every receiver, and that a round mixing
/// broadcasting and per-link senders still delivers complete rows.

#include <gtest/gtest.h>

#include <vector>

#include "adversary/adversary.hpp"
#include "core/last_voting.hpp"
#include "model/reception.hpp"
#include "util/rng.hpp"

namespace hoval {
namespace {

/// Payloads on both sides of the counted [0, 64) range: small values,
/// negatives, the default 999 poison value and offsets past the boundary.
const std::vector<Value> kPayloads = {0, 1, 2, 3, 9, 10, 63, 64, 65,
                                      -1, -7, 999, 1000, 4096};

Msg random_msg(Rng& rng) {
  const Value v =
      kPayloads[static_cast<std::size_t>(rng.below(kPayloads.size()))];
  switch (rng.below(4)) {
    case 0: return make_estimate(v);
    case 1: return make_vote(v);
    case 2: return make_question_vote();
    default: return Msg{MsgKind::kEstimate, std::nullopt};  // garbled estimate
  }
}

/// Every query an algorithm can make, compared between two vectors.
void expect_same_view(const ReceptionVector& got, const ReceptionVector& want) {
  ASSERT_EQ(got.universe_size(), want.universe_size());
  for (ProcessId q = 0; q < want.universe_size(); ++q)
    EXPECT_EQ(got.get(q), want.get(q)) << "slot " << q;
  EXPECT_EQ(got.support(), want.support());
  EXPECT_EQ(got.count_received(), want.count_received());
  EXPECT_EQ(got.count_question_votes(), want.count_question_votes());
  for (const MsgKind kind : {MsgKind::kEstimate, MsgKind::kVote}) {
    EXPECT_EQ(got.count_kind(kind), want.count_kind(kind));
    EXPECT_EQ(got.payload_histogram(kind), want.payload_histogram(kind));
    for (const Value v : kPayloads)
      EXPECT_EQ(got.count_payload(kind, v), want.count_payload(kind, v));
    EXPECT_EQ(got.smallest_most_frequent(kind), want.smallest_most_frequent(kind));
    EXPECT_EQ(got.payload_exceeding(kind, 1.0), want.payload_exceeding(kind, 1.0));
  }
}

TEST(CopyOnWrite, BoundReceiverAnswersLikeAnOwnedVector) {
  const int n = 13;
  Rng rng(0xC0);
  for (int trial = 0; trial < 200; ++trial) {
    ReceptionVector base(n);
    for (ProcessId q = 0; q < n; ++q)
      if (rng.below(5) != 0) base.set(q, random_msg(rng));

    // `eager` is read after every operation (incremental aggregate upkeep);
    // `lazy` only at the end (one merge of base plus overrides).
    ReceptionVector eager;
    ReceptionVector lazy;
    eager.bind(base);
    lazy.bind(base);
    ReceptionVector owned = base;  // copies flatten: an owned reference
    expect_same_view(eager, owned);

    const int ops = static_cast<int>(rng.range(1, 3 * n));
    for (int op = 0; op < ops; ++op) {
      const auto q = static_cast<ProcessId>(rng.below(n));
      switch (rng.below(4)) {
        case 0: {  // set
          const Msg m = random_msg(rng);
          for (ReceptionVector* mu : {&eager, &lazy, &owned}) mu->set(q, m);
          break;
        }
        case 1:  // unset / omit
          for (ReceptionVector* mu : {&eager, &lazy, &owned}) mu->unset(q);
          break;
        default:  // restore the base entry
          for (ReceptionVector* mu : {&eager, &lazy, &owned}) {
            if (base.get(q))
              mu->set(q, *base.get(q));
            else
              mu->unset(q);
          }
          break;
      }
      expect_same_view(eager, owned);
      if (::testing::Test::HasFailure()) return;
    }
    expect_same_view(lazy, owned);
    if (::testing::Test::HasFailure()) return;
  }
}

IntendedRound broadcast_round(int n, Value base) {
  IntendedRound intended;
  intended.round = 1;
  intended.resize(n);
  for (ProcessId q = 0; q < n; ++q) intended.broadcast(q, make_estimate(base + q % 3));
  return intended;
}

/// Flattened copies of every receiver of `round`.
std::vector<ReceptionVector> snapshot(const DeliveredRound& round) {
  return round.by_receiver;
}

void alter(const IntendedRound& intended, DeliveredRound& round) {
  round.put(1, 0, make_estimate(999));
  round.put(2, 0, make_estimate(-4));
  round.omit(3, 1);
  round.put(0, 2, make_vote(70));
  round.restore(intended, 0, 2);
  round.put(4, 3, make_question_vote());
}

TEST(CopyOnWrite, DeliveredRoundSurvivesReturnMoveAndCopy) {
  const int n = 6;
  const IntendedRound intended = broadcast_round(n, 5);
  DeliveredRound returned = DeliveredRound::faithful(intended);
  alter(intended, returned);
  const std::vector<ReceptionVector> expected = snapshot(returned);
  EXPECT_EQ(*expected[0].get(1), make_estimate(999));
  EXPECT_FALSE(expected[1].get(3).has_value());
  EXPECT_EQ(*expected[2].get(0), make_estimate(5));

  DeliveredRound moved = std::move(returned);
  DeliveredRound copied = moved;
  DeliveredRound assigned;
  assigned = copied;
  for (const DeliveredRound* round : {&moved, &copied, &assigned}) {
    ASSERT_EQ(round->n(), n);
    for (ProcessId p = 0; p < n; ++p) {
      expect_same_view(round->by_receiver[static_cast<std::size_t>(p)],
                       expected[static_cast<std::size_t>(p)]);
      EXPECT_EQ(round->altered(p), moved.altered(p));
    }
  }
  EXPECT_EQ(copied.altered(0), ProcessSet::of(n, {1, 2}));
  EXPECT_EQ(copied.safe(1), ProcessSet::universe(n).subtract(ProcessSet::of(n, {3})));

  // Re-delivering the moved-from round's successor leaves the copies be.
  const IntendedRound next = broadcast_round(n, 40);
  moved.assign_faithful(next);
  EXPECT_EQ(*moved.by_receiver[0].get(1), make_estimate(41));
  for (ProcessId p = 0; p < n; ++p)
    expect_same_view(copied.by_receiver[static_cast<std::size_t>(p)],
                     expected[static_cast<std::size_t>(p)]);
}

TEST(CopyOnWrite, CopiedReceiverOutlivesTheNextRound) {
  const int n = 7;
  const IntendedRound first = broadcast_round(n, 1);
  DeliveredRound round;
  round.assign_faithful(first);
  alter(first, round);
  const ReceptionVector kept = round.by_receiver[0];
  const ReceptionVector kept_untouched = round.by_receiver[5];

  const IntendedRound second = broadcast_round(n, 30);
  round.assign_faithful(second);
  round.put(1, 0, make_estimate(7));

  EXPECT_EQ(*kept.get(1), make_estimate(999));
  EXPECT_EQ(*kept.get(2), make_estimate(-4));
  EXPECT_EQ(*kept.get(0), make_estimate(1));
  EXPECT_EQ(kept.count_payload(MsgKind::kEstimate, 999), 1);
  EXPECT_EQ(kept.count_payload(MsgKind::kEstimate, 30), 0);
  EXPECT_EQ(kept_untouched.payload_histogram(MsgKind::kEstimate),
            (PayloadHistogram{{1, 3}, {2, 2}, {3, 2}}));
  EXPECT_EQ(round.by_receiver[5].payload_histogram(MsgKind::kEstimate),
            (PayloadHistogram{{30, 3}, {31, 2}, {32, 2}}));
}

TEST(CopyOnWrite, MixedRoundWithPerLinkSendersFillsCompleteRows) {
  // LastVoting addresses its coordinator individually (and sends the null
  // placeholder to everyone else), and its packed (value, ts) payloads lie
  // far outside the counted payload range.  The odd senders broadcast
  // instead, so every round mixes the two kinds of sender.
  const int n = 5;
  const ProcessVector processes =
      make_last_voting_instance(n, {4, 1, 3, 0, 2});
  for (Round r = 1; r <= 4; ++r) {
    IntendedRound intended;
    intended.round = r;
    intended.resize(n);
    for (ProcessId q = 0; q < n; ++q) {
      const HoProcess& sender = *processes[static_cast<std::size_t>(q)];
      ASSERT_FALSE(sender.broadcasts());
      if (q % 2 == 1) {
        intended.broadcast(q, make_vote(q));
      } else {
        for (ProcessId p = 0; p < n; ++p)
          intended.send(q, p, sender.message_for(r, p));
      }
    }
    EXPECT_EQ(intended.per_link_senders(), ProcessSet::of(n, {0, 2, 4}));
    const DeliveredRound delivered = DeliveredRound::faithful(intended);
    for (ProcessId p = 0; p < n; ++p) {
      ReceptionVector want(n);
      for (ProcessId q = 0; q < n; ++q) {
        const Msg expected =
            q % 2 == 1 ? make_vote(q)
                       : processes[static_cast<std::size_t>(q)]->message_for(r, p);
        EXPECT_EQ(intended.intended(q, p), expected);
        want.set(q, expected);
      }
      expect_same_view(delivered.by_receiver[static_cast<std::size_t>(p)], want);
      EXPECT_EQ(delivered.safe(p), ProcessSet::universe(n)) << "round " << r;
    }
  }
}

TEST(CopyOnWrite, TrackedGroundTruthMatchesMessageComparison) {
  // altered(p) and safe(p) are word algebra over tracked sets; they must
  // equal AHO and SHO computed by comparing every delivered message with
  // the intended one, whatever sequence of put/put_altered/omit/restore
  // an adversary issues (here on a round with one per-link sender).
  const int n = 9;
  Rng rng(0xA40);
  CorruptionPolicy policy;
  for (int trial = 0; trial < 100; ++trial) {
    IntendedRound intended = broadcast_round(n, trial % 4);
    for (ProcessId p = 0; p < n; ++p) intended.send(4, p, make_vote(p % 2));
    DeliveredRound delivered = DeliveredRound::faithful(intended);
    for (int op = 0; op < 4 * n; ++op) {
      const auto q = static_cast<ProcessId>(rng.below(n));
      const auto p = static_cast<ProcessId>(rng.below(n));
      switch (rng.below(4)) {
        case 0: delivered.put(q, p, random_msg(rng)); break;
        case 1:
          delivered.put_altered(q, p,
                                corrupt_message(intended.intended(q, p), policy, rng));
          break;
        case 2: delivered.omit(q, p); break;
        default: delivered.restore(intended, q, p); break;
      }
    }
    for (ProcessId p = 0; p < n; ++p) {
      ProcessSet aho(n);
      ProcessSet sho(n);
      for (ProcessId q = 0; q < n; ++q) {
        const auto& got = delivered.by_receiver[static_cast<std::size_t>(p)].get(q);
        if (!got) continue;
        if (*got == intended.intended(q, p))
          sho.insert(q);
        else
          aho.insert(q);
      }
      ASSERT_EQ(delivered.altered(p), aho) << "trial " << trial << " p " << p;
      ASSERT_EQ(delivered.safe(p), sho) << "trial " << trial << " p " << p;
    }
  }
}

TEST(CopyOnWrite, SendSeedsARowFromTheBroadcastMessage) {
  IntendedRound intended;
  intended.resize(3);
  intended.broadcast(1, make_estimate(8));
  intended.send(1, 2, make_vote(3));
  EXPECT_EQ(intended.intended(1, 0), make_estimate(8));
  EXPECT_EQ(intended.intended(1, 2), make_vote(3));
  EXPECT_EQ(intended.per_link_senders(), ProcessSet::of(3, {1}));
  intended.broadcast(1, make_estimate(6));
  EXPECT_EQ(intended.intended(1, 2), make_estimate(6));
  EXPECT_TRUE(intended.per_link_senders().empty());
}

TEST(CopyOnWrite, BindingRequiresAnOwnedBase) {
  ReceptionVector base(3);
  ReceptionVector bound;
  bound.bind(base);
  ReceptionVector chained;
  EXPECT_THROW(chained.bind(bound), PreconditionError);
  EXPECT_THROW(base.bind(base), PreconditionError);
}

}  // namespace
}  // namespace hoval
