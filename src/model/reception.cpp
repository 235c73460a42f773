#include "model/reception.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hoval {

namespace {

/// The first entry of a sorted histogram whose value is not below `v`.
template <typename Histogram>
auto lower_bound_value(Histogram& hist, Value v) {
  return std::lower_bound(hist.begin(), hist.end(), v,
                          [](const std::pair<Value, int>& entry, Value value) {
                            return entry.first < value;
                          });
}

}  // namespace

// ------------------------------------------------------------ PayloadCounts

void PayloadCounts::add_other(Value v) {
  auto it = lower_bound_value(others_, v);
  if (it != others_.end() && it->first == v)
    ++it->second;
  else
    others_.insert(it, {v, 1});
}

void PayloadCounts::remove_other(Value v) {
  auto it = lower_bound_value(others_, v);
  HOVAL_ENSURES_MSG(it != others_.end() && it->first == v,
                    "histogram out of step with slots");
  if (--it->second == 0) others_.erase(it);
}

int PayloadCounts::count_other(Value v) const noexcept {
  const auto it = lower_bound_value(others_, v);
  return it != others_.end() && it->first == v ? it->second : 0;
}

void PayloadCounts::assign(const PayloadCounts& other) {
  for (std::uint64_t word = occupied_ & ~other.occupied_; word != 0;
       word &= word - 1)
    counts_[__builtin_ctzll(word)] = 0;
  occupied_ = other.occupied_;
  for (std::uint64_t word = occupied_; word != 0; word &= word - 1) {
    const int v = __builtin_ctzll(word);
    counts_[v] = other.counts_[v];
  }
  if (!others_.empty() || !other.others_.empty())
    others_ = other.others_;  // reuses capacity
}

// --------------------------------------------------------- ReceptionVector

void ReceptionVector::Aggregates::clear() noexcept {
  for (int& count : kind_counts) count = 0;
  question_votes = 0;
  for (auto& hist : hists) hist.clear();
}

void ReceptionVector::Aggregates::assign(const Aggregates& other) {
  for (int k = 0; k < kKinds; ++k) {
    kind_counts[k] = other.kind_counts[k];
    hists[k].assign(other.hists[k]);
  }
  question_votes = other.question_votes;
}

ReceptionVector::ReceptionVector(int n)
    : slots_(static_cast<std::size_t>(n)), overridden_(n), present_(n) {
  HOVAL_EXPECTS_MSG(n >= 0, "universe size must be non-negative");
}

ReceptionVector::ReceptionVector(const ReceptionVector& other) {
  flatten_from(other);
}

ReceptionVector& ReceptionVector::operator=(const ReceptionVector& other) {
  if (this != &other) flatten_from(other);
  return *this;
}

void ReceptionVector::flatten_from(const ReceptionVector& other) {
  const int n = other.universe_size();
  slots_.resize(static_cast<std::size_t>(n));
  for (ProcessId q = 0; q < n; ++q)
    slots_[static_cast<std::size_t>(q)] = other.slot(q);
  if (overridden_.universe_size() != n) overridden_ = ProcessSet(n);
  overridden_.clear();
  present_ = other.present_;
  other.ensure_aggregates();
  aggregates_.assign(other.aggregates_);
  aggregates_current_ = true;
  base_ = nullptr;
}

void ReceptionVector::reset(int n) {
  HOVAL_EXPECTS_MSG(n >= 0, "universe size must be non-negative");
  if (universe_size() == n) {
    for (auto& slot : slots_) slot.reset();
    present_.clear();
    overridden_.clear();
  } else {
    slots_.assign(static_cast<std::size_t>(n), std::nullopt);
    present_ = ProcessSet(n);
    overridden_ = ProcessSet(n);
  }
  aggregates_.clear();
  aggregates_current_ = true;
  base_ = nullptr;
}

void ReceptionVector::bind(const ReceptionVector& base) {
  HOVAL_EXPECTS_MSG(base.base_ == nullptr && &base != this,
                    "a copy-on-write base must own its slots");
  const int n = base.universe_size();
  if (universe_size() != n) {
    slots_.assign(static_cast<std::size_t>(n), std::nullopt);
    overridden_ = ProcessSet(n);
  } else {
    overridden_.clear();
  }
  present_ = base.present_;  // same universe: a word copy
  base_ = &base;
  aggregates_current_ = false;
}

void ReceptionVector::replace_in_aggregates(ProcessId q, const Msg& m) {
  if (const std::optional<Msg>& current = slot(q)) aggregates_.remove(*current);
  aggregates_.add(m);
}

void ReceptionVector::unset(ProcessId q) {
  HOVAL_EXPECTS_MSG(q >= 0 && q < universe_size(), "sender id out of universe");
  if (!present_.contains(q)) return;
  const auto i = static_cast<std::size_t>(q);
  if (aggregates_current_) aggregates_.remove(*slot(q));
  slots_[i].reset();
  if (base_ != nullptr) overridden_.insert(q);
  present_.erase(q);
}

void ReceptionVector::unset_many(const ProcessSet& senders) {
  HOVAL_EXPECTS_MSG(senders.universe_size() == universe_size(),
                    "sender set must be over the vector's universe");
  if (aggregates_current_) {  // always so for an owned vector
    senders.for_each([&](ProcessId q) { unset(q); });
    return;
  }
  senders.for_each([&](ProcessId q) { slots_[static_cast<std::size_t>(q)].reset(); });
  overridden_.unite_with(senders);
  present_.subtract_with(senders);
}

void ReceptionVector::merge_aggregates() const {
  aggregates_.assign(base_->aggregates_);
  overridden_.for_each([&](ProcessId q) {
    const auto i = static_cast<std::size_t>(q);
    if (const std::optional<Msg>& was = base_->slots_[i]) aggregates_.remove(*was);
    if (const std::optional<Msg>& now = slots_[i]) aggregates_.add(*now);
  });
  aggregates_current_ = true;
}

void ReceptionVector::support_into(ProcessSet& out) const {
  HOVAL_EXPECTS_MSG(out.universe_size() == universe_size(),
                    "support target must be over the same universe");
  out = present_;  // word copy; same universe, so no allocation
}

int ReceptionVector::count_kind(MsgKind kind) const {
  ensure_aggregates();
  return aggregates_.kind_counts[kind_index(kind)];
}

int ReceptionVector::count_payload(MsgKind kind, Value v) const {
  ensure_aggregates();
  return aggregates_.hists[kind_index(kind)].count(v);
}

int ReceptionVector::count_question_votes() const {
  ensure_aggregates();
  return aggregates_.question_votes;
}

PayloadHistogram ReceptionVector::payload_histogram(MsgKind kind) const {
  PayloadHistogram hist;
  for_each_payload(kind, [&](Value v, int count) { hist.emplace_back(v, count); });
  return hist;
}

std::optional<Value> ReceptionVector::smallest_most_frequent(MsgKind kind) const {
  std::optional<Value> best;
  int best_count = 0;
  for_each_payload(kind, [&](Value v, int count) {
    if (count > best_count) {  // ascending values: ties keep the smallest
      best = v;
      best_count = count;
    }
  });
  return best;
}

std::optional<Value> ReceptionVector::payload_exceeding(MsgKind kind,
                                                        double threshold) const {
  std::optional<Value> found;
  for_each_payload(kind, [&](Value v, int count) {
    if (!found && static_cast<double>(count) > threshold) found = v;
  });
  return found;
}

ProcessSet ReceptionVector::senders_of(const Msg& m) const {
  ProcessSet s(universe_size());
  for (ProcessId q = 0; q < universe_size(); ++q) {
    const auto& entry = slot(q);
    if (entry && *entry == m) s.insert(q);
  }
  return s;
}

}  // namespace hoval
