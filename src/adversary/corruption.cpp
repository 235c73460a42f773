#include "adversary/corruption.hpp"

#include <sstream>

#include "util/check.hpp"

namespace hoval {

RandomCorruptionAdversary::RandomCorruptionAdversary(RandomCorruptionConfig config)
    : config_(config) {
  HOVAL_EXPECTS_MSG(config.alpha >= 0, "alpha must be non-negative");
  HOVAL_EXPECTS_MSG(config.attack_probability >= 0.0 &&
                        config.attack_probability <= 1.0,
                    "attack probability must be in [0,1]");
}

std::string RandomCorruptionAdversary::name() const {
  std::ostringstream os;
  os << "random-corruption(alpha=" << config_.alpha
     << ", p=" << config_.attack_probability
     << (config_.always_max ? ", max" : ", uniform") << ")";
  return os.str();
}

void RandomCorruptionAdversary::apply(const IntendedRound& intended,
                                      DeliveredRound& delivered, Rng& rng) {
  const int n = intended.n();
  const int budget = std::min(config_.alpha, n);
  if (budget == 0) return;
  // All attack coins of the round in one word-at-a-time pass (zero draws
  // when the intensity is degenerate), then Floyd's k-subset per attacked
  // receiver — no per-link rng.chance and no O(n) sample pool.
  BernoulliBlock attack(config_.attack_probability);
  if (attack.never()) return;
  if (attacked_scratch_.universe_size() != n) {
    attacked_scratch_ = ProcessSet(n);
    victim_scratch_ = ProcessSet(n);
  }
  attacked_scratch_.assign_bernoulli(rng, attack);
  attacked_scratch_.for_each([&](ProcessId p) {
    const int count =
        config_.always_max
            ? budget
            : static_cast<int>(rng.range(1, static_cast<std::int64_t>(budget)));
    victim_scratch_.assign_random_subset(rng, count);
    victim_scratch_.for_each([&](ProcessId sender) {
      delivered.put_altered(
          sender, p,
          corrupt_message(intended.intended(sender, p), config_.policy, rng));
    });
  });
}

}  // namespace hoval
