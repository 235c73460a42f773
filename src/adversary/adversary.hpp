#pragma once

/// \file adversary.hpp
/// The transmission-fault adversary abstraction.
///
/// In this paper's model *all* faults are transmission faults: at round r
/// every process q ought to send S_q^r(s_q, p) to every p, and the
/// adversary decides, per (sender, receiver) link, whether the message is
/// delivered faithfully, delivered corrupted, or omitted.  The adversary
/// sees the complete intended communication of the round (a worst-case,
/// adaptive adversary) and may keep state across rounds; it never touches
/// process states — there are no state faults and no "faulty processes".
///
/// The simulator derives ground truth from the transformation:
///   HO(p,r)  = links delivered (faithfully or not)
///   SHO(p,r) = links delivered with message == intended
///   AHO(p,r) = delivered but != intended.
///
/// Copy-on-write delivery: DeliveredRound::assign_faithful builds the
/// round's faithful base vector once and binds every receiver to it, so a
/// receiver stores only the links the adversary overrides.  Lifetime rule:
/// a receiver in DeliveredRound::by_receiver is valid until that round
/// object's next assign_faithful; copies flatten and stay valid after it.

#include <memory>
#include <string>
#include <vector>

#include "model/message.hpp"
#include "model/reception.hpp"
#include "model/types.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hoval {

/// What every process ought to send at one round: the outputs of the
/// sending functions S_q^r, read through intended(q, p).
///
/// A broadcasting sender (one message to everyone — every core algorithm
/// but LastVoting) is stored as that one message; only a sender that
/// addresses receivers individually gets a row of n messages.  So an
/// all-broadcast round is n messages, not an n×n matrix.
class IntendedRound {
 public:
  Round round = 0;

  int n() const noexcept { return static_cast<int>(broadcast_.size()); }

  /// Re-targets the round to `n` processes, every sender broadcasting a
  /// default message; storage is reused when the size already matches, so
  /// a workspace-held instance allocates only on the first run of a size.
  void resize(int n);

  /// `sender` sends `m` to every receiver.
  void broadcast(ProcessId sender, Msg m) {
    HOVAL_EXPECTS_MSG(sender >= 0 && sender < n(), "sender out of universe");
    broadcast_[static_cast<std::size_t>(sender)] = m;
    per_link_.erase(sender);
  }

  /// `sender` sends `m` to `receiver` only.  The first call for a sender
  /// that was broadcasting seeds its row with the broadcast message, so
  /// the round always describes every link.
  void send(ProcessId sender, ProcessId receiver, Msg m);

  /// The message `sender` ought to send to `receiver`.
  const Msg& intended(ProcessId sender, ProcessId receiver) const {
    HOVAL_EXPECTS_MSG(sender >= 0 && sender < n(), "sender out of universe");
    HOVAL_EXPECTS_MSG(receiver >= 0 && receiver < n(), "receiver out of universe");
    const auto q = static_cast<std::size_t>(sender);
    if (!per_link_.contains(sender)) return broadcast_[q];
    return rows_[q * broadcast_.size() + static_cast<std::size_t>(receiver)];
  }

  /// Senders that address receivers individually this round.
  const ProcessSet& per_link_senders() const noexcept { return per_link_; }

 private:
  std::vector<Msg> broadcast_;  ///< [sender]: its message when broadcasting
  std::vector<Msg> rows_;       ///< [sender * n + receiver], per-link senders
  ProcessSet per_link_;         ///< senders whose row in rows_ is live
};

/// What is actually received at one round: a reception vector per receiver.
///
/// assign_faithful builds the round's faithful base vector once (each
/// sender's message to receiver 0) and binds every receiver to it
/// copy-on-write (see reception.hpp), overriding only the links of
/// per-link senders whose message differs from the base.  Adversaries then
/// pay only for the links they touch.  Lifetime rule: a receiver in
/// by_receiver is valid until the next assign_faithful of this round
/// object; copy it (copies flatten) to keep it longer.  Copying or moving
/// a DeliveredRound keeps every receiver's contents.
///
/// The round also tracks, per receiver, the set of *altered* links (put()
/// compares against the intended round captured by assign_faithful, and
/// alter() is only handed messages that differ from it), so the
/// simulator's ground truth is pure word algebra: HO is the support of
/// the reception vector and SHO is HO minus the altered set — no per-link
/// message comparison on the hot path.
struct DeliveredRound {
  std::vector<ReceptionVector> by_receiver;

  DeliveredRound() = default;
  DeliveredRound(const DeliveredRound& other);
  DeliveredRound& operator=(const DeliveredRound& other);
  DeliveredRound(DeliveredRound&&) noexcept = default;
  DeliveredRound& operator=(DeliveredRound&&) noexcept = default;

  int n() const noexcept { return static_cast<int>(by_receiver.size()); }

  /// Faithful delivery of every intended message (the adversary's
  /// starting point; also the behaviour of the identity adversary).
  static DeliveredRound faithful(const IntendedRound& intended);

  /// In-place faithful delivery: every link carries the intended message,
  /// reusing the reception-vector storage across rounds and runs.
  /// Captures a reference to `intended` for the alteration tracking of
  /// put(); it must stay alive and unchanged until the next
  /// assign_faithful.
  void assign_faithful(const IntendedRound& intended);

  /// Replaces what `receiver` gets from `sender`.
  void put(ProcessId sender, ProcessId receiver, Msg m);

  /// Drops the message from `sender` to `receiver` (omission fault).
  void omit(ProcessId sender, ProcessId receiver);

  /// Replaces what `receiver` gets from every sender in `senders` with
  /// msg_for(sender), called once per sender in ascending order.  Each
  /// message must differ from the intended one (e.g. the output of
  /// corrupt_message), so no comparison against the intended round is
  /// made: all of `senders` join the altered set in one word operation.
  template <typename MsgFor>
  void alter(ProcessId receiver, const ProcessSet& senders, MsgFor&& msg_for) {
    HOVAL_EXPECTS_MSG(receiver >= 0 && receiver < n(), "receiver out of universe");
    const auto p = static_cast<std::size_t>(receiver);
    by_receiver[p].set_many(senders, msg_for);
    altered_[p].unite_with(senders);
  }

  /// Drops every message from `senders` to `receiver` in one batch.
  void omit(ProcessId receiver, const ProcessSet& senders);

  /// Restores the faithful message on one link.
  void restore(const IntendedRound& intended, ProcessId sender, ProcessId receiver);

  /// Ground truth for one receiver in word operations: `ho` becomes the
  /// support of its reception vector, `sho` the safe subset (support minus
  /// altered links).  Both sets must be over this round's universe.
  void ground_truth_into(ProcessId receiver, ProcessSet& ho,
                         ProcessSet& sho) const;

  /// Senders whose delivered entry differs from the intended one (AHO),
  /// as maintained by put()/alter()/omit() since the last
  /// assign_faithful.
  const ProcessSet& altered(ProcessId receiver) const;

  /// SHO(receiver): senders whose delivered message equals the intended
  /// one (the support minus the altered links).
  ProcessSet safe(ProcessId receiver) const;

 private:
  const IntendedRound* faithful_ = nullptr;  ///< set by assign_faithful
  std::vector<ProcessSet> altered_;          ///< per receiver, delivered ∧ != intended
  /// The faithful base every receiver binds to; on the heap so the
  /// bindings survive a move of the round.
  std::unique_ptr<ReceptionVector> base_;
};

/// How a corrupted message is fabricated from the original.
enum class CorruptionStyle {
  kGarbage,      ///< well-formed envelope, unusable content (wrong kind, no payload)
  kRandomValue,  ///< same kind, uniformly random payload from a pool
  kOffsetValue,  ///< same kind, payload shifted by a constant
  kFixedValue,   ///< same kind, a fixed poison payload
};

/// Policy bundle for corrupt_message().
struct CorruptionPolicy {
  CorruptionStyle style = CorruptionStyle::kRandomValue;
  Value fixed_value = 999;  ///< poison payload for kFixedValue
  Value offset = 1;         ///< shift for kOffsetValue
  Value pool_lo = 0;        ///< inclusive pool bounds for kRandomValue
  Value pool_hi = 9;
};

/// Fabricates a corrupted replacement for `original`; guaranteed to differ
/// from `original` so the alteration really shows up in AHO.
Msg corrupt_message(const Msg& original, const CorruptionPolicy& policy, Rng& rng);

/// Base class of all transmission-fault adversaries.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Diagnostic name, e.g. "random-corruption(alpha=3)".
  virtual std::string name() const = 0;

  /// Called once at the start of every run; stateful adversaries (e.g. the
  /// static Byzantine one) re-draw their per-run choices here.
  virtual void reset(int n, Rng& rng);

  /// Transforms the round's delivery in place.  `delivered` starts as the
  /// faithful delivery (or the output of an earlier adversary in a
  /// composition).  `rng` is the run's fault-schedule stream.
  virtual void apply(const IntendedRound& intended, DeliveredRound& delivered,
                     Rng& rng) = 0;
};

/// Delivers everything faithfully (the fault-free environment).
class IdentityAdversary final : public Adversary {
 public:
  std::string name() const override { return "identity"; }
  void apply(const IntendedRound&, DeliveredRound&, Rng&) override {}
};

}  // namespace hoval
