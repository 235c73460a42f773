#include "adversary/omission.hpp"

#include <sstream>

#include "util/check.hpp"

namespace hoval {

RandomOmissionAdversary::RandomOmissionAdversary(double drop_probability,
                                                 int max_omissions_per_receiver)
    : drop_probability_(drop_probability),
      max_omissions_per_receiver_(max_omissions_per_receiver) {
  HOVAL_EXPECTS_MSG(drop_probability >= 0.0 && drop_probability <= 1.0,
                    "drop probability must be in [0,1]");
}

std::string RandomOmissionAdversary::name() const {
  std::ostringstream os;
  os << "random-omission(p=" << drop_probability_;
  if (max_omissions_per_receiver_ >= 0)
    os << ", cap=" << max_omissions_per_receiver_;
  os << ")";
  return os.str();
}

void RandomOmissionAdversary::apply(const IntendedRound& intended,
                                    DeliveredRound& delivered, Rng& rng) {
  const int n = intended.n();
  // One lane per link; consecutive receivers share refills, so a round
  // costs at most ceil(n*n/64) * 32 draws instead of n*n.
  BernoulliBlock coins(drop_probability_);
  if (coins.never() || max_omissions_per_receiver_ == 0) return;
  if (victim_scratch_.universe_size() != n) victim_scratch_ = ProcessSet(n);
  for (ProcessId p = 0; p < n; ++p) {
    const int victims = victim_scratch_.assign_bernoulli(rng, coins);
    if (max_omissions_per_receiver_ >= 0 &&
        victims > max_omissions_per_receiver_)
      victim_scratch_.keep_random_subset(rng, max_omissions_per_receiver_);
    delivered.omit(p, victim_scratch_);
  }
}

CrashAdversary::CrashAdversary(int victims, Round crash_round)
    : victims_(victims), crash_round_(crash_round) {
  HOVAL_EXPECTS_MSG(victims >= 0, "victim count must be non-negative");
  HOVAL_EXPECTS_MSG(crash_round >= 1, "crash round must be positive");
}

std::string CrashAdversary::name() const {
  std::ostringstream os;
  os << "crash(victims=" << victims_ << ", from-round=" << crash_round_ << ")";
  return os.str();
}

void CrashAdversary::reset(int n, Rng& rng) {
  HOVAL_EXPECTS_MSG(victims_ <= n, "more victims than processes");
  victim_set_ = ProcessSet(n);
  for (std::size_t idx : rng.sample(static_cast<std::size_t>(n),
                                    static_cast<std::size_t>(victims_)))
    victim_set_.insert(static_cast<ProcessId>(idx));
}

void CrashAdversary::apply(const IntendedRound& intended,
                           DeliveredRound& delivered, Rng& /*rng*/) {
  if (intended.round < crash_round_) return;
  for (ProcessId p = 0; p < intended.n(); ++p) delivered.omit(p, victim_set_);
}

}  // namespace hoval
