#pragma once

/// \file reception.hpp
/// The reception vector ~mu_p^r: a partial vector indexed by Pi holding the
/// message (if any) that p received from each process q at round r.  This is
/// the only view an algorithm gets of a round — algorithms cannot observe
/// which entries were corrupted (SHO is known to the analysis, not to p).
///
/// Copy-on-write lifetime rule.  A vector is either *owned* (it stores
/// every slot) or *bound* to an owned base vector (bind()): it then stores
/// only the senders overridden since the bind, and reads every other slot
/// through the base.  The simulator binds each receiver of a round to the
/// round's faithful broadcast vector, so a bound receiver is valid only
/// until its round's next DeliveredRound::assign_faithful (which rewrites
/// the base).  Copies always flatten: copying a bound vector yields an
/// owned one with the same contents, which outlives the round.  A move
/// keeps the binding, so a moved-to vector obeys the same rule.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "model/message.hpp"
#include "model/process_set.hpp"
#include "model/types.hpp"
#include "util/check.hpp"

namespace hoval {

/// Multiset of payloads as (value, multiplicity) pairs sorted by value
/// ascending.
using PayloadHistogram = std::vector<std::pair<Value, int>>;

/// Payload multiset with O(1) counted updates for the small values every
/// algorithm and corruption pool in this repository uses: a counter per
/// value in [0, 64) plus a 64-bit occupancy word for ascending iteration.
/// Any other value (negative, poison, far offsets) goes to a sorted flat
/// vector; the path is chosen per value.
///
/// Invariant: counts_[v] == 0 wherever bit v of occupied_ is clear.
/// clear() and assign() zero the counters they vacate, so add, remove and
/// count read and write the counter without testing the occupancy bit.
class PayloadCounts {
 public:
  void clear() noexcept {
    for (std::uint64_t word = occupied_; word != 0; word &= word - 1)
      counts_[__builtin_ctzll(word)] = 0;
    occupied_ = 0;
    others_.clear();
  }

  void add(Value v) {
    if (!counted(v)) return add_other(v);
    ++counts_[v];
    occupied_ |= std::uint64_t{1} << v;
  }

  void remove(Value v) {
    if (!counted(v)) return remove_other(v);
    HOVAL_ENSURES_MSG(counts_[v] > 0, "histogram out of step with slots");
    --counts_[v];
    occupied_ &= ~(static_cast<std::uint64_t>(counts_[v] == 0) << v);
  }

  int count(Value v) const noexcept {
    return counted(v) ? counts_[v] : count_other(v);
  }

  /// Copies `other`'s contents, touching only the counters occupied on
  /// either side.
  void assign(const PayloadCounts& other);

  /// Calls fn(value, multiplicity) for every distinct value, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    auto it = others_.begin();
    for (; it != others_.end() && it->first < 0; ++it) fn(it->first, it->second);
    for (std::uint64_t word = occupied_; word != 0; word &= word - 1) {
      const int v = __builtin_ctzll(word);
      fn(static_cast<Value>(v), counts_[v]);
    }
    for (; it != others_.end(); ++it) fn(it->first, it->second);
  }

 private:
  static constexpr Value kCounted = 64;

  static bool counted(Value v) noexcept {
    return static_cast<std::uint64_t>(v) < static_cast<std::uint64_t>(kCounted);
  }
  void add_other(Value v);
  void remove_other(Value v);
  int count_other(Value v) const noexcept;

  std::uint64_t occupied_ = 0;  ///< bit v set iff value v in [0, 64) is present
  int counts_[kCounted] = {};   ///< multiplicities; 0 where not occupied
  PayloadHistogram others_;     ///< values outside [0, 64), sorted
};

/// Partial vector of messages indexed by sender.
///
/// Alongside the slots the vector keeps its aggregates: the support bitset
/// (always current), and per-kind counts, the '?'-vote count and one
/// payload multiset per kind.  An owned vector updates the aggregates on
/// every mutation; a bound vector derives them from its base plus its
/// overridden senders on the first read after a bind, and updates them
/// incrementally from then on.  So the queries the transition functions
/// hammer every round are O(1), a popcount or one ascending pass, and an
/// adversary that alters alpha links of a bound receiver pays O(alpha).
class ReceptionVector {
 public:
  /// Empty owned vector over a universe of `n` processes.
  explicit ReceptionVector(int n = 0);

  /// Copies flatten: the result is owned and independent of any base.
  ReceptionVector(const ReceptionVector& other);
  ReceptionVector& operator=(const ReceptionVector& other);
  ReceptionVector(ReceptionVector&&) noexcept = default;
  ReceptionVector& operator=(ReceptionVector&&) noexcept = default;

  int universe_size() const noexcept { return static_cast<int>(slots_.size()); }

  /// Re-targets the vector to an owned, empty vector over `n` processes,
  /// reusing the slot storage when the size already matches.
  void reset(int n);

  /// Makes this vector a copy-on-write view of `base` (which must be owned
  /// and must outlive the binding unchanged): every slot reads through the
  /// base until overridden.  Reuses the slot storage when the size matches.
  void bind(const ReceptionVector& base);

  /// Records that the message from `q` was received as `m` (overwrites).
  void set(ProcessId q, const Msg& m) {
    HOVAL_EXPECTS_MSG(q >= 0 && q < universe_size(), "sender id out of universe");
    if (aggregates_current_) replace_in_aggregates(q, m);
    slots_[static_cast<std::size_t>(q)] = m;
    if (base_ != nullptr) overridden_.insert(q);
    present_.insert(q);
  }

  /// Removes the entry for `q` (models omission).
  void unset(ProcessId q);

  /// set(q, msg_for(q)) for every q in `senders`, calling msg_for once per
  /// sender in ascending order.  A bound vector whose aggregates are not
  /// derived yet writes only the slots and marks the senders with one word
  /// operation per set; an owned vector, or one whose aggregates are
  /// current, takes the per-link set().
  template <typename MsgFor>
  void set_many(const ProcessSet& senders, MsgFor&& msg_for) {
    HOVAL_EXPECTS_MSG(senders.universe_size() == universe_size(),
                      "sender set must be over the vector's universe");
    if (aggregates_current_) {  // always so for an owned vector
      senders.for_each([&](ProcessId q) { set(q, msg_for(q)); });
      return;
    }
    senders.for_each([&](ProcessId q) {
      slots_[static_cast<std::size_t>(q)] = msg_for(q);
    });
    overridden_.unite_with(senders);
    present_.unite_with(senders);
  }

  /// unset(q) for every q in `senders`, batched like set_many().  A sender
  /// that was already absent may end up marked overridden with an empty
  /// slot, which reads the same as its (empty) base slot.
  void unset_many(const ProcessSet& senders);

  /// The entry for `q`, nullopt when nothing was received from q.
  const std::optional<Msg>& get(ProcessId q) const {
    HOVAL_EXPECTS_MSG(q >= 0 && q < universe_size(), "sender id out of universe");
    return slot(q);
  }

  /// The support of the vector — exactly HO(p, r).
  ProcessSet support() const { return present_; }

  /// Writes the support into `out` (which must be over the same universe)
  /// without constructing a new set — the hot-path variant of support().
  void support_into(ProcessSet& out) const;

  /// |HO(p, r)|: number of defined entries.
  int count_received() const noexcept { return present_.count(); }

  /// Number of received messages of the given kind.
  int count_kind(MsgKind kind) const;

  /// Number of received messages of kind `kind` whose payload equals `v`
  /// (the paper's |R_p^r(v)| when restricted to well-formed messages).
  int count_payload(MsgKind kind, Value v) const;

  /// Number of received '?' votes.
  int count_question_votes() const;

  /// Calls fn(value, multiplicity) for every distinct payload among the
  /// received messages of `kind`, in ascending value order — the one pass
  /// transition functions batch their histogram rules into.
  template <typename Fn>
  void for_each_payload(MsgKind kind, Fn&& fn) const {
    ensure_aggregates();
    aggregates_.hists[kind_index(kind)].for_each(fn);
  }

  /// Multiset of payloads among received messages of `kind`, sorted by
  /// value ascending.
  PayloadHistogram payload_histogram(MsgKind kind) const;

  /// "The smallest most often received value": among messages of `kind`
  /// that carry a payload, the value with the highest multiplicity,
  /// breaking ties toward the smallest value.  nullopt when no message of
  /// that kind carries a payload.
  std::optional<Value> smallest_most_frequent(MsgKind kind) const;

  /// Some value of `kind` received strictly more than `threshold` times,
  /// if any (smallest such value for determinism; unique by Lemma 2 when
  /// threshold >= n/2).
  std::optional<Value> payload_exceeding(MsgKind kind, double threshold) const;

  /// Senders whose entry equals `m` exactly.
  ProcessSet senders_of(const Msg& m) const;

 private:
  static constexpr int kKinds = 2;  ///< kEstimate, kVote

  static int kind_index(MsgKind kind) noexcept {
    return static_cast<int>(kind);
  }

  /// Per-kind counts, '?' votes and payload multisets.
  struct Aggregates {
    int kind_counts[kKinds] = {0, 0};
    int question_votes = 0;
    PayloadCounts hists[kKinds];

    void clear() noexcept;
    void assign(const Aggregates& other);

    void add(const Msg& m) {
      ++kind_counts[kind_index(m.kind)];
      if (m.payload)
        hists[kind_index(m.kind)].add(*m.payload);
      else if (m.kind == MsgKind::kVote)
        ++question_votes;
    }

    void remove(const Msg& m) {
      --kind_counts[kind_index(m.kind)];
      if (m.payload)
        hists[kind_index(m.kind)].remove(*m.payload);
      else if (m.kind == MsgKind::kVote)
        --question_votes;
    }
  };

  /// The current entry for `q` (no bounds check).
  const std::optional<Msg>& slot(ProcessId q) const {
    const auto i = static_cast<std::size_t>(q);
    return base_ != nullptr && !overridden_.contains(q) ? base_->slots_[i]
                                                        : slots_[i];
  }

  /// Swaps slot `q`'s current entry for `m` in the aggregates.
  void replace_in_aggregates(ProcessId q, const Msg& m);

  void ensure_aggregates() const {
    if (!aggregates_current_) merge_aggregates();
  }
  /// Derives the aggregates of a bound vector from its base plus the
  /// overridden senders.
  void merge_aggregates() const;
  /// Copies `other`'s contents into this vector as an owned vector.
  void flatten_from(const ReceptionVector& other);

  const ReceptionVector* base_ = nullptr;   ///< COW base when bound
  std::vector<std::optional<Msg>> slots_;   ///< owned: all; bound: overridden
  ProcessSet overridden_;  ///< bound: senders whose slot lives in slots_
  ProcessSet present_;     ///< support — exactly HO(p, r)
  mutable bool aggregates_current_ = true;  // beside the fields set() touches
  mutable Aggregates aggregates_;
};

}  // namespace hoval
