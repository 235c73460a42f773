#include "adversary/wrappers.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace hoval {

// ---------------------------------------------------------------- Composed

ComposedAdversary::ComposedAdversary(std::vector<std::shared_ptr<Adversary>> parts)
    : parts_(std::move(parts)) {
  for (const auto& part : parts_)
    HOVAL_EXPECTS_MSG(part != nullptr, "composed adversary part must not be null");
}

std::string ComposedAdversary::name() const {
  std::ostringstream os;
  os << "composed(";
  for (std::size_t i = 0; i < parts_.size(); ++i)
    os << (i ? " -> " : "") << parts_[i]->name();
  os << ")";
  return os.str();
}

void ComposedAdversary::reset(int n, Rng& rng) {
  for (const auto& part : parts_) part->reset(n, rng);
}

void ComposedAdversary::apply(const IntendedRound& intended,
                              DeliveredRound& delivered, Rng& rng) {
  for (const auto& part : parts_) part->apply(intended, delivered, rng);
}

// --------------------------------------------------------------- Transient

TransientWindowAdversary::TransientWindowAdversary(
    std::shared_ptr<Adversary> inner, Round from, Round to)
    : inner_(std::move(inner)), from_(from), to_(to) {
  HOVAL_EXPECTS_MSG(inner_ != nullptr, "inner adversary must not be null");
  HOVAL_EXPECTS_MSG(from >= 1 && to >= from, "window must be a valid round range");
}

std::string TransientWindowAdversary::name() const {
  std::ostringstream os;
  os << "transient[" << from_ << ".." << to_ << "](" << inner_->name() << ")";
  return os.str();
}

void TransientWindowAdversary::reset(int n, Rng& rng) { inner_->reset(n, rng); }

void TransientWindowAdversary::apply(const IntendedRound& intended,
                                     DeliveredRound& delivered, Rng& rng) {
  if (intended.round >= from_ && intended.round <= to_)
    inner_->apply(intended, delivered, rng);
}

PeriodicBurstAdversary::PeriodicBurstAdversary(std::shared_ptr<Adversary> inner,
                                               int period, int burst)
    : inner_(std::move(inner)), period_(period), burst_(burst) {
  HOVAL_EXPECTS_MSG(inner_ != nullptr, "inner adversary must not be null");
  HOVAL_EXPECTS_MSG(period >= 1, "period must be positive");
  HOVAL_EXPECTS_MSG(burst >= 0 && burst <= period, "burst must fit in the period");
}

std::string PeriodicBurstAdversary::name() const {
  std::ostringstream os;
  os << "burst[" << burst_ << "/" << period_ << "](" << inner_->name() << ")";
  return os.str();
}

void PeriodicBurstAdversary::reset(int n, Rng& rng) { inner_->reset(n, rng); }

void PeriodicBurstAdversary::apply(const IntendedRound& intended,
                                   DeliveredRound& delivered, Rng& rng) {
  if ((intended.round - 1) % period_ < burst_)
    inner_->apply(intended, delivered, rng);
}

// ---------------------------------------------------------- GoodRound (A)

GoodRoundScheduler::GoodRoundScheduler(std::shared_ptr<Adversary> inner,
                                       GoodRoundConfig config)
    : inner_(std::move(inner)), config_(config) {
  HOVAL_EXPECTS_MSG(inner_ != nullptr, "inner adversary must not be null");
  HOVAL_EXPECTS_MSG(config.period >= 1, "period must be positive");
  HOVAL_EXPECTS_MSG(config.offset >= 0 && config.offset < config.period,
                    "offset must be within the period");
  if (config.minimal)
    HOVAL_EXPECTS_MSG(config.pi1_size >= 1 && config.pi2_size >= 1,
                      "minimal good rounds need Pi^1 and Pi^2 sizes");
}

std::string GoodRoundScheduler::name() const {
  std::ostringstream os;
  os << "good-round[every " << config_.period << "]";
  if (config_.minimal)
    os << "[minimal |Pi1|=" << config_.pi1_size << " |Pi2|=" << config_.pi2_size << "]";
  os << "(" << inner_->name() << ")";
  return os.str();
}

bool GoodRoundScheduler::is_good_round(Round r) const noexcept {
  return r % config_.period == config_.offset;
}

void GoodRoundScheduler::reset(int n, Rng& rng) { inner_->reset(n, rng); }

void GoodRoundScheduler::apply(const IntendedRound& intended,
                               DeliveredRound& delivered, Rng& rng) {
  if (!is_good_round(intended.round)) {
    inner_->apply(intended, delivered, rng);
    return;
  }
  // Good round: delivered stays faithful (the caller hands us a faithful
  // starting point and the inner adversary never runs).  In minimal mode we
  // additionally carve out Pi^1 hearing exactly Pi^2.
  if (!config_.minimal) return;

  const int n = intended.n();
  const int pi1 = std::min(config_.pi1_size, n);
  const int pi2 = std::min(config_.pi2_size, n);
  const auto pi1_members = rng.sample(static_cast<std::size_t>(n),
                                      static_cast<std::size_t>(pi1));
  const auto pi2_members = rng.sample(static_cast<std::size_t>(n),
                                      static_cast<std::size_t>(pi2));
  // Members of Pi^2 stay faithful: HO(p) = SHO(p) = Pi^2.
  ProcessSet outside_pi2 = ProcessSet::universe(n);
  for (std::size_t q : pi2_members) outside_pi2.erase(static_cast<ProcessId>(q));
  for (std::size_t p : pi1_members)
    delivered.omit(static_cast<ProcessId>(p), outside_pi2);
}

// --------------------------------------------------------- CleanPhase (U)

CleanPhaseScheduler::CleanPhaseScheduler(std::shared_ptr<Adversary> inner,
                                         CleanPhaseConfig config)
    : inner_(std::move(inner)), config_(config) {
  HOVAL_EXPECTS_MSG(inner_ != nullptr, "inner adversary must not be null");
  HOVAL_EXPECTS_MSG(config.period_phases >= 1, "period must be positive");
  HOVAL_EXPECTS_MSG(config.offset >= 0 && config.offset < config.period_phases,
                    "offset must be within the period");
}

std::string CleanPhaseScheduler::name() const {
  std::ostringstream os;
  os << "clean-phase[every " << config_.period_phases << " phases";
  if (config_.pi0_size > 0) os << ", |Pi0|=" << config_.pi0_size;
  os << "](" << inner_->name() << ")";
  return os.str();
}

bool CleanPhaseScheduler::is_protected_round(Round r) const noexcept {
  // Protected windows are {2*phi0, 2*phi0+1, 2*phi0+2} for clean phases
  // phi0 (phi0 ≡ offset mod period, phi0 >= 1).
  for (int delta = 0; delta <= 2; ++delta) {
    const Round base = r - delta;
    if (base >= 2 && base % 2 == 0) {
      const Phase phi0 = base / 2;
      if (phi0 % config_.period_phases == config_.offset) return true;
    }
  }
  return false;
}

void CleanPhaseScheduler::reset(int n, Rng& rng) { inner_->reset(n, rng); }

void CleanPhaseScheduler::apply(const IntendedRound& intended,
                                DeliveredRound& delivered, Rng& rng) {
  if (!is_protected_round(intended.round)) {
    inner_->apply(intended, delivered, rng);
    return;
  }

  const int n = intended.n();
  const bool exact_pi0_round =
      intended.round % 2 == 0 &&
      (intended.round / 2) % config_.period_phases == config_.offset;
  if (!exact_pi0_round) return;  // faithful delivery suffices for +1/+2

  // Round 2*phi0: every process hears exactly Pi_0, uncorrupted.
  const int pi0 = config_.pi0_size <= 0 ? n : std::min(config_.pi0_size, n);
  if (pi0 == n) return;  // Pi_0 = Pi: faithful delivery already matches
  const auto members = rng.sample(static_cast<std::size_t>(n),
                                  static_cast<std::size_t>(pi0));
  ProcessSet outside_pi0 = ProcessSet::universe(n);
  for (std::size_t q : members) outside_pi0.erase(static_cast<ProcessId>(q));
  for (ProcessId p = 0; p < n; ++p) delivered.omit(p, outside_pi0);
}

// -------------------------------------------------------------- SafetyClamp

SafetyClampAdversary::SafetyClampAdversary(std::shared_ptr<Adversary> inner,
                                           double min_sho, int max_aho)
    : inner_(std::move(inner)), min_sho_(min_sho), max_aho_(max_aho) {
  HOVAL_EXPECTS_MSG(inner_ != nullptr, "inner adversary must not be null");
}

std::string SafetyClampAdversary::name() const {
  std::ostringstream os;
  os << "clamp[";
  if (min_sho_ >= 0) os << "|SHO|>" << min_sho_;
  if (min_sho_ >= 0 && max_aho_ >= 0) os << ", ";
  if (max_aho_ >= 0) os << "|AHO|<=" << max_aho_;
  os << "](" << inner_->name() << ")";
  return os.str();
}

void SafetyClampAdversary::reset(int n, Rng& rng) { inner_->reset(n, rng); }

void SafetyClampAdversary::apply(const IntendedRound& intended,
                                 DeliveredRound& delivered, Rng& rng) {
  inner_->apply(intended, delivered, rng);

  const int n = intended.n();
  if (ho_scratch_.universe_size() != n) {
    ho_scratch_ = ProcessSet(n);
    safe_scratch_ = ProcessSet(n);
  }
  for (ProcessId p = 0; p < n; ++p) {
    // First bound the alterations (P_alpha), repairing altered links in a
    // random order.
    if (max_aho_ >= 0) {
      candidates_.clear();
      delivered.altered(p).for_each([&](ProcessId q) { candidates_.push_back(q); });
      rng.shuffle(candidates_);
      while (static_cast<int>(candidates_.size()) > max_aho_) {
        delivered.restore(intended, candidates_.back(), p);
        candidates_.pop_back();
      }
    }
    // Then lift |SHO| strictly above min_sho (P^{U,safe}); the unsafe
    // links are the complement of SHO = support \ altered.
    if (min_sho_ >= 0) {
      delivered.ground_truth_into(p, ho_scratch_, safe_scratch_);
      candidates_.clear();
      for (ProcessId q = 0; q < n; ++q)
        if (!safe_scratch_.contains(q)) candidates_.push_back(q);
      rng.shuffle(candidates_);
      int safe = safe_scratch_.count();
      while (static_cast<double>(safe) <= min_sho_ && !candidates_.empty()) {
        delivered.restore(intended, candidates_.back(), p);
        candidates_.pop_back();
        ++safe;
      }
      HOVAL_ENSURES_MSG(static_cast<double>(safe) > min_sho_ ||
                            static_cast<double>(n) <= min_sho_,
                        "SHO clamp could not be satisfied");
    }
  }
}

}  // namespace hoval
