#include "adversary/adversary.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hoval {

void IntendedRound::resize(int n) {
  HOVAL_EXPECTS_MSG(n >= 0, "universe size must be non-negative");
  broadcast_.assign(static_cast<std::size_t>(n), Msg{});
  if (per_link_.universe_size() != n)
    per_link_ = ProcessSet(n);
  else
    per_link_.clear();
}

void IntendedRound::send(ProcessId sender, ProcessId receiver, Msg m) {
  HOVAL_EXPECTS_MSG(sender >= 0 && sender < n(), "sender out of universe");
  HOVAL_EXPECTS_MSG(receiver >= 0 && receiver < n(), "receiver out of universe");
  const auto size = broadcast_.size();
  const auto q = static_cast<std::size_t>(sender);
  if (!per_link_.contains(sender)) {
    if (rows_.size() != size * size) rows_.resize(size * size);
    std::fill_n(rows_.begin() + static_cast<std::ptrdiff_t>(q * size), size,
                broadcast_[q]);
    per_link_.insert(sender);
  }
  rows_[q * size + static_cast<std::size_t>(receiver)] = m;
}

DeliveredRound::DeliveredRound(const DeliveredRound& other)
    : by_receiver(other.by_receiver),
      faithful_(other.faithful_),
      altered_(other.altered_) {}

DeliveredRound& DeliveredRound::operator=(const DeliveredRound& other) {
  if (this != &other) {
    by_receiver = other.by_receiver;  // receivers flatten, so no base needed
    faithful_ = other.faithful_;
    altered_ = other.altered_;
  }
  return *this;
}

DeliveredRound DeliveredRound::faithful(const IntendedRound& intended) {
  DeliveredRound out;
  out.assign_faithful(intended);
  return out;
}

void DeliveredRound::assign_faithful(const IntendedRound& intended) {
  const int n = intended.n();
  faithful_ = &intended;
  if (static_cast<int>(altered_.size()) != n ||
      (n > 0 && altered_.front().universe_size() != n)) {
    altered_.assign(static_cast<std::size_t>(n), ProcessSet(n));
  } else {
    for (auto& set : altered_) set.clear();
  }
  // The base holds every sender's message to receiver 0 — for a
  // broadcasting sender, its message to everyone — with its aggregates,
  // built once per round.
  if (!base_) base_ = std::make_unique<ReceptionVector>(n);
  base_->reset(n);
  for (ProcessId q = 0; q < n; ++q) base_->set(q, intended.intended(q, 0));
  if (this->n() != n) by_receiver.resize(static_cast<std::size_t>(n));
  for (ReceptionVector& mu : by_receiver) mu.bind(*base_);
  intended.per_link_senders().for_each([&](ProcessId q) {
    const Msg& to_first = intended.intended(q, 0);
    for (ProcessId p = 1; p < n; ++p) {
      const Msg& m = intended.intended(q, p);
      if (m != to_first) by_receiver[static_cast<std::size_t>(p)].set(q, m);
    }
  });
}

void DeliveredRound::put(ProcessId sender, ProcessId receiver, Msg m) {
  HOVAL_EXPECTS_MSG(receiver >= 0 && receiver < n(), "receiver out of universe");
  by_receiver[static_cast<std::size_t>(receiver)].set(sender, m);
  ProcessSet& altered = altered_[static_cast<std::size_t>(receiver)];
  if (m == faithful_->intended(sender, receiver))
    altered.erase(sender);
  else
    altered.insert(sender);
}

void DeliveredRound::omit(ProcessId sender, ProcessId receiver) {
  HOVAL_EXPECTS_MSG(receiver >= 0 && receiver < n(), "receiver out of universe");
  by_receiver[static_cast<std::size_t>(receiver)].unset(sender);
  altered_[static_cast<std::size_t>(receiver)].erase(sender);
}

void DeliveredRound::omit(ProcessId receiver, const ProcessSet& senders) {
  HOVAL_EXPECTS_MSG(receiver >= 0 && receiver < n(), "receiver out of universe");
  const auto p = static_cast<std::size_t>(receiver);
  by_receiver[p].unset_many(senders);
  altered_[p].subtract_with(senders);
}

void DeliveredRound::ground_truth_into(ProcessId receiver, ProcessSet& ho,
                                       ProcessSet& sho) const {
  HOVAL_EXPECTS_MSG(receiver >= 0 && receiver < n(), "receiver out of universe");
  by_receiver[static_cast<std::size_t>(receiver)].support_into(ho);
  sho = ho;
  sho.subtract_with(altered_[static_cast<std::size_t>(receiver)]);
}

const ProcessSet& DeliveredRound::altered(ProcessId receiver) const {
  HOVAL_EXPECTS_MSG(receiver >= 0 && receiver < n(), "receiver out of universe");
  return altered_[static_cast<std::size_t>(receiver)];
}

ProcessSet DeliveredRound::safe(ProcessId receiver) const {
  ProcessSet ho(n());
  ProcessSet sho(n());
  ground_truth_into(receiver, ho, sho);
  return sho;
}

void DeliveredRound::restore(const IntendedRound& intended, ProcessId sender,
                             ProcessId receiver) {
  put(sender, receiver, intended.intended(sender, receiver));
}

Msg corrupt_message(const Msg& original, const CorruptionPolicy& policy, Rng& rng) {
  Msg out = original;
  switch (policy.style) {
    case CorruptionStyle::kGarbage:
      out.kind = original.kind == MsgKind::kEstimate ? MsgKind::kVote
                                                     : MsgKind::kEstimate;
      out.payload.reset();
      break;
    case CorruptionStyle::kRandomValue:
      out.payload = rng.range(policy.pool_lo, policy.pool_hi);
      break;
    case CorruptionStyle::kOffsetValue:
      out.payload = original.payload.value_or(0) + policy.offset;
      break;
    case CorruptionStyle::kFixedValue:
      out.payload = policy.fixed_value;
      break;
  }
  if (out == original) {
    // Corruption must actually alter the message, otherwise the link would
    // still count as safe (SHO compares delivered against intended).
    out.payload = original.payload ? *original.payload + 1 : Value{0};
  }
  HOVAL_ENSURES(!(out == original));
  return out;
}

void Adversary::reset(int /*n*/, Rng& /*rng*/) {}

}  // namespace hoval
