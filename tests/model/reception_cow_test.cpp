/// Copy-on-write aliasing rules of the delivery kernel.
///
/// A receiver bound to a shared base vector stores only the senders it
/// overrides and derives its aggregates lazily; these tests pin that it is
/// observationally identical to an owned vector fed the same operations,
/// that copies flatten (and so outlive the round), that moving or copying
/// a DeliveredRound keeps every receiver, that a round mixing
/// broadcasting and per-link senders still delivers complete rows, and
/// that the batched per-receiver edits (alter, omit over a sender set)
/// leave exactly what the per-link put/omit reference leaves.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adversary/adversary.hpp"
#include "adversary/corruption.hpp"
#include "adversary/omission.hpp"
#include "adversary/wrappers.hpp"
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
  // the intended one, whatever sequence of put/alter/omit/restore
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
          delivered.alter(p, ProcessSet::of(n, {q}), [&](ProcessId sender) {
            return corrupt_message(intended.intended(sender, p), policy, rng);
          });
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

// --- batched edits vs the per-link reference -------------------------------

/// Both rounds must hold the same receivers: every slot, the support, every
/// aggregate query, and the same altered set — which must also equal AHO
/// computed by comparing each delivered message with the intended one.
void expect_same_rounds(const IntendedRound& intended, const DeliveredRound& got,
                        const DeliveredRound& want) {
  ASSERT_EQ(got.n(), want.n());
  for (ProcessId p = 0; p < want.n(); ++p) {
    const auto i = static_cast<std::size_t>(p);
    expect_same_view(got.by_receiver[i], want.by_receiver[i]);
    EXPECT_EQ(got.altered(p), want.altered(p)) << "receiver " << p;
    EXPECT_EQ(got.safe(p), want.safe(p)) << "receiver " << p;
    ProcessSet aho(want.n());
    for (ProcessId q = 0; q < want.n(); ++q) {
      const auto& m = got.by_receiver[i].get(q);
      if (m && !(*m == intended.intended(q, p))) aho.insert(q);
    }
    EXPECT_EQ(got.altered(p), aho) << "receiver " << p;
  }
}

/// A round over `n` processes in which every third sender (q = 1, 4, ...)
/// addresses some receivers individually, so assign_faithful already
/// overrides those receivers before any adversary runs.
IntendedRound mixed_round(int n, Rng& rng) {
  IntendedRound intended;
  intended.round = 1;
  intended.resize(n);
  for (ProcessId q = 0; q < n; ++q) {
    intended.broadcast(q, random_msg(rng));
    if (q % 3 == 1)
      for (ProcessId p = 0; p < n; ++p)
        if (rng.below(2) == 0) intended.send(q, p, random_msg(rng));
  }
  return intended;
}

ProcessSet random_senders(int n, Rng& rng) {
  ProcessSet senders(n);
  for (ProcessId q = 0; q < n; ++q)
    if (rng.below(4) == 0) senders.insert(q);
  return senders;
}

TEST(BatchEdits, AlterAndOmitMatchPerLinkEditsOnRandomRounds) {
  Rng rng(0xBA7C);
  CorruptionPolicy policy;
  policy.pool_lo = -2;  // corrupt values on both sides of the counted range
  policy.pool_hi = 70;
  for (int round = 0; round < 1200; ++round) {
    // Mostly inline universes, some spilled past one word.
    const int n = round % 10 == 9 ? 67 + static_cast<int>(rng.below(8))
                                  : 2 + static_cast<int>(rng.below(40));
    const IntendedRound intended = mixed_round(n, rng);
    DeliveredRound batched = DeliveredRound::faithful(intended);
    DeliveredRound linkwise = DeliveredRound::faithful(intended);
    const int ops = 1 + static_cast<int>(rng.below(12));
    for (int op = 0; op < ops; ++op) {
      const auto p = static_cast<ProcessId>(rng.below(static_cast<std::uint64_t>(n)));
      const auto q = static_cast<ProcessId>(rng.below(static_cast<std::uint64_t>(n)));
      switch (rng.below(6)) {
        case 0: {  // a per-link override on both sides
          const Msg m = random_msg(rng);
          batched.put(q, p, m);
          linkwise.put(q, p, m);
          break;
        }
        case 1:  // a per-link omission on both sides
          batched.omit(q, p);
          linkwise.omit(q, p);
          break;
        case 2:  // materialise the batched receiver's aggregates
          (void)batched.by_receiver[static_cast<std::size_t>(p)].count_kind(
              MsgKind::kEstimate);
          break;
        case 3:
        case 4: {  // batched alteration vs put() per link
          const ProcessSet senders = random_senders(n, rng);
          std::vector<Msg> drawn;
          ProcessId last = -1;
          batched.alter(p, senders, [&](ProcessId sender) {
            EXPECT_GT(sender, last) << "msg_for must run in ascending order";
            last = sender;
            drawn.push_back(corrupt_message(intended.intended(sender, p), policy, rng));
            return drawn.back();
          });
          ASSERT_EQ(static_cast<int>(drawn.size()), senders.count());
          std::size_t next = 0;
          senders.for_each([&](ProcessId sender) { linkwise.put(sender, p, drawn[next++]); });
          break;
        }
        default: {  // batched omission vs omit() per link
          const ProcessSet senders = random_senders(n, rng);
          batched.omit(p, senders);
          senders.for_each([&](ProcessId sender) { linkwise.omit(sender, p); });
          break;
        }
      }
    }
    expect_same_rounds(intended, batched, linkwise);
    if (::testing::Test::HasFailure()) FAIL() << "round " << round << ", n " << n;
  }
}

/// The per-link twins of the converted adversaries: the same draws in the
/// same order, with one put()/omit() per link instead of a batch edit.
class LinkwiseCorruption final : public Adversary {
 public:
  explicit LinkwiseCorruption(RandomCorruptionConfig config) : config_(config) {}
  std::string name() const override { return "linkwise-corruption"; }
  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override {
    const int n = intended.n();
    const int budget = std::min(config_.alpha, n);
    BernoulliBlock attack(config_.attack_probability);
    if (budget == 0 || attack.never()) return;
    ProcessSet attacked(n);
    ProcessSet victims(n);
    attacked.assign_bernoulli(rng, attack);
    attacked.for_each([&](ProcessId p) {
      const int count = config_.always_max
                            ? budget
                            : static_cast<int>(rng.range(1, budget));
      victims.assign_random_subset(rng, count);
      victims.for_each([&](ProcessId q) {
        delivered.put(q, p, corrupt_message(intended.intended(q, p), config_.policy, rng));
      });
    });
  }

 private:
  RandomCorruptionConfig config_;
};

class LinkwiseOmission final : public Adversary {
 public:
  LinkwiseOmission(double drop, int cap) : drop_(drop), cap_(cap) {}
  std::string name() const override { return "linkwise-omission"; }
  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override {
    const int n = intended.n();
    BernoulliBlock coins(drop_);
    if (coins.never() || cap_ == 0) return;
    ProcessSet victims(n);
    for (ProcessId p = 0; p < n; ++p) {
      const int drawn = victims.assign_bernoulli(rng, coins);
      if (cap_ >= 0 && drawn > cap_) victims.keep_random_subset(rng, cap_);
      victims.for_each([&](ProcessId q) { delivered.omit(q, p); });
    }
  }

 private:
  double drop_;
  int cap_;
};

/// CleanPhaseScheduler with Pi_0 carved out link by link.
class LinkwiseCleanPhases final : public Adversary {
 public:
  LinkwiseCleanPhases(std::shared_ptr<Adversary> inner, CleanPhaseConfig config)
      : inner_(std::move(inner)), schedule_(inner_, config), config_(config) {}
  std::string name() const override { return "linkwise-clean-phases"; }
  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override {
    const Round r = intended.round;
    if (!schedule_.is_protected_round(r)) return inner_->apply(intended, delivered, rng);
    if (r % 2 != 0 || (r / 2) % config_.period_phases != config_.offset) return;
    const int n = intended.n();
    const int pi0 = config_.pi0_size <= 0 ? n : std::min(config_.pi0_size, n);
    if (pi0 == n) return;
    const auto members = rng.sample(static_cast<std::size_t>(n),
                                    static_cast<std::size_t>(pi0));
    ProcessSet in_pi0(n);
    for (std::size_t q : members) in_pi0.insert(static_cast<ProcessId>(q));
    for (ProcessId p = 0; p < n; ++p)
      for (ProcessId q = 0; q < n; ++q)
        if (!in_pi0.contains(q)) delivered.omit(q, p);
  }

 private:
  std::shared_ptr<Adversary> inner_;
  CleanPhaseScheduler schedule_;  ///< only asked which rounds are protected
  CleanPhaseConfig config_;
};

/// Runs both stacks over the same rounds from the same seed; the batched
/// stack's receivers must equal the per-link twin's after every round.
void expect_stacks_agree(Adversary& batched, Adversary& linkwise, int n,
                         int runs, int rounds, std::uint64_t seed) {
  Rng messages(seed);
  for (int run = 0; run < runs; ++run) {
    Rng batched_rng(seed + static_cast<std::uint64_t>(run));
    Rng linkwise_rng(seed + static_cast<std::uint64_t>(run));
    batched.reset(n, batched_rng);
    linkwise.reset(n, linkwise_rng);
    DeliveredRound got;
    DeliveredRound want;
    for (Round r = 1; r <= rounds; ++r) {
      IntendedRound intended = mixed_round(n, messages);
      intended.round = r;
      got.assign_faithful(intended);
      want.assign_faithful(intended);
      batched.apply(intended, got, batched_rng);
      linkwise.apply(intended, want, linkwise_rng);
      expect_same_rounds(intended, got, want);
      if (::testing::Test::HasFailure())
        FAIL() << "run " << run << ", round " << r;
    }
    EXPECT_EQ(batched_rng.next(), linkwise_rng.next()) << "draws out of step";
  }
}

TEST(BatchEdits, CorruptClampCleanPhaseStackMatchesPerLinkTwin) {
  // corrupt -> usafe-clamp -> clean-phases, as in the served workloads,
  // with Pi_0 smaller than Pi so the clean rounds omit too.
  const int n = 9;
  RandomCorruptionConfig corruption;
  corruption.alpha = 4;
  corruption.attack_probability = 0.8;
  corruption.always_max = false;
  CleanPhaseConfig clean;
  clean.period_phases = 2;
  clean.pi0_size = 6;
  const double min_sho = 5.0;
  CleanPhaseScheduler batched(
      std::make_shared<SafetyClampAdversary>(
          std::make_shared<RandomCorruptionAdversary>(corruption), min_sho, 4),
      clean);
  LinkwiseCleanPhases linkwise(
      std::make_shared<SafetyClampAdversary>(
          std::make_shared<LinkwiseCorruption>(corruption), min_sho, 4),
      clean);
  expect_stacks_agree(batched, linkwise, n, 25, 24, 0x57AC);  // 600 rounds
}

TEST(BatchEdits, OmitThenCorruptStackMatchesPerLinkTwin) {
  const int n = 11;
  RandomCorruptionConfig corruption;
  corruption.alpha = 3;
  ComposedAdversary batched({std::make_shared<RandomOmissionAdversary>(0.3, 4),
                             std::make_shared<RandomCorruptionAdversary>(corruption)});
  ComposedAdversary linkwise({std::make_shared<LinkwiseOmission>(0.3, 4),
                              std::make_shared<LinkwiseCorruption>(corruption)});
  expect_stacks_agree(batched, linkwise, n, 25, 20, 0x0C0);  // 500 rounds
}

TEST(BatchEdits, CrashOmitsEveryVictimLinkFromItsRoundOn) {
  const int n = 10;
  CrashAdversary crash(3, 2);
  Rng rng(5);
  crash.reset(n, rng);
  Rng messages(6);
  DeliveredRound delivered;
  ProcessSet silent(n);
  for (Round r = 1; r <= 3; ++r) {
    IntendedRound intended = mixed_round(n, messages);
    intended.round = r;
    delivered.assign_faithful(intended);
    crash.apply(intended, delivered, rng);
    for (ProcessId p = 0; p < n; ++p) {
      const ProcessSet support = delivered.by_receiver[static_cast<std::size_t>(p)].support();
      if (r == 1) {
        EXPECT_EQ(support, ProcessSet::universe(n));
      } else if (p == 0) {
        silent = ProcessSet::universe(n).subtract(support);
        EXPECT_EQ(silent.count(), 3);
      } else {
        EXPECT_EQ(ProcessSet::universe(n).subtract(support), silent);
      }
      EXPECT_TRUE(delivered.altered(p).empty());
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
