/// Distribution-equivalence locks for the bit-parallel run kernel.
///
/// The word-at-a-time adversaries (BernoulliBlock lane draws + Floyd's
/// subset sampling) consume the fault-schedule RNG differently from the
/// historical per-link loops, so fixed-seed streams are *allowed* to
/// differ — what must not change is the fault distribution.  These tests
/// re-implement the pre-kernel per-link adversaries verbatim and compare
/// them against the production kernel with chi-square tests at two levels:
/// per-round fault-count histograms (adversary layer in isolation) and
/// end-to-end campaign termination/violation rates (same scenarios, old
/// kernel vs new).  All seeds are fixed, so the verdicts are
/// deterministic: a failure means the kernel changed the distribution,
/// not that the dice were unlucky.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/corruption.hpp"
#include "adversary/omission.hpp"
#include "core/factories.hpp"
#include "sim/executor.hpp"
#include "sim/initial_values.hpp"
#include "util/rng.hpp"

namespace hoval {
namespace {

// -------------------------------------------------------------------------
// Reference adversaries: the per-link implementations the kernel replaced,
// kept bit-for-bit as they were so the comparison target cannot drift.
// -------------------------------------------------------------------------

class ReferenceOmissionAdversary final : public Adversary {
 public:
  ReferenceOmissionAdversary(double drop_probability, int cap)
      : drop_probability_(drop_probability), cap_(cap) {}

  std::string name() const override { return "reference-omission"; }

  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override {
    const int n = intended.n();
    for (ProcessId p = 0; p < n; ++p) {
      int dropped = 0;
      std::vector<ProcessId> order(static_cast<std::size_t>(n));
      for (ProcessId q = 0; q < n; ++q) order[static_cast<std::size_t>(q)] = q;
      rng.shuffle(order);
      for (ProcessId q : order) {
        if (cap_ >= 0 && dropped >= cap_) break;
        if (rng.chance(drop_probability_)) {
          delivered.omit(q, p);
          ++dropped;
        }
      }
    }
  }

 private:
  double drop_probability_;
  int cap_;
};

class ReferenceCorruptionAdversary final : public Adversary {
 public:
  explicit ReferenceCorruptionAdversary(RandomCorruptionConfig config)
      : config_(config) {}

  std::string name() const override { return "reference-corruption"; }

  void apply(const IntendedRound& intended, DeliveredRound& delivered,
             Rng& rng) override {
    const int n = intended.n();
    const int budget = std::min(config_.alpha, n);
    if (budget == 0) return;
    for (ProcessId p = 0; p < n; ++p) {
      if (!rng.chance(config_.attack_probability)) continue;
      const int count =
          config_.always_max
              ? budget
              : static_cast<int>(rng.range(1, static_cast<std::int64_t>(budget)));
      for (std::size_t sender_idx : rng.sample(static_cast<std::size_t>(n),
                                               static_cast<std::size_t>(count))) {
        const auto sender = static_cast<ProcessId>(sender_idx);
        delivered.put(sender, p,
                      corrupt_message(intended.intended(sender, p),
                                      config_.policy, rng));
      }
    }
  }

 private:
  RandomCorruptionConfig config_;
};

// -------------------------------------------------------------------------
// Chi-square helpers (fixed seeds -> deterministic verdicts).
// -------------------------------------------------------------------------

/// Pearson chi-square homogeneity statistic for two samples binned into the
/// same categories.  Empty pooled bins contribute nothing.
double chi_square_homogeneity(const std::vector<int>& a,
                              const std::vector<int>& b) {
  EXPECT_EQ(a.size(), b.size());
  double total_a = 0;
  double total_b = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    total_a += a[i];
    total_b += b[i];
  }
  const double total = total_a + total_b;
  double chi2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double pooled = a[i] + b[i];
    if (pooled == 0) continue;
    const double expected_a = pooled * total_a / total;
    const double expected_b = pooled * total_b / total;
    chi2 += (a[i] - expected_a) * (a[i] - expected_a) / expected_a +
            (b[i] - expected_b) * (b[i] - expected_b) / expected_b;
  }
  return chi2;
}

/// Chi-square goodness of fit against a uniform distribution.
double chi_square_uniform(const std::vector<long>& counts) {
  double total = 0;
  for (long c : counts) total += c;
  const double expected = total / static_cast<double>(counts.size());
  double chi2 = 0.0;
  for (long c : counts)
    chi2 += (c - expected) * (c - expected) / expected;
  return chi2;
}

/// 2x2 chi-square on success counts out of two equal-sized samples.
double chi_square_rates(int hits_a, int total_a, int hits_b, int total_b) {
  const std::vector<int> a{hits_a, total_a - hits_a};
  const std::vector<int> b{hits_b, total_b - hits_b};
  return chi_square_homogeneity(a, b);
}

// p = 0.01 critical values for the degrees of freedom used below.
constexpr double kCrit1 = 6.635;
constexpr double kCrit5 = 15.086;
constexpr double kCrit8 = 20.090;

/// A uniform broadcast round (content is irrelevant to the fault draws).
IntendedRound uniform_round(int n) {
  IntendedRound intended;
  intended.round = 1;
  intended.resize(n);
  for (ProcessId q = 0; q < n; ++q) intended.broadcast(q, make_estimate(q % 3));
  return intended;
}

/// Applies `adversary` to `trials` independent faithful rounds and returns
/// (per-trial total fault count, per-sender fault count) where a fault is
/// a link this `faulted` predicate flags.
template <typename Faulted>
std::pair<std::vector<int>, std::vector<long>> fault_counts(
    Adversary& adversary, const IntendedRound& intended, int trials,
    std::uint64_t seed, Faulted&& faulted) {
  const int n = intended.n();
  std::vector<int> per_trial;
  per_trial.reserve(static_cast<std::size_t>(trials));
  std::vector<long> per_sender(static_cast<std::size_t>(n), 0);
  DeliveredRound delivered;
  for (int t = 0; t < trials; ++t) {
    Rng rng(mix_seed(seed, static_cast<std::uint64_t>(t)));
    delivered.assign_faithful(intended);
    adversary.apply(intended, delivered, rng);
    int total = 0;
    for (ProcessId p = 0; p < n; ++p) {
      for (ProcessId q = 0; q < n; ++q) {
        if (faulted(delivered, q, p)) {
          ++total;
          ++per_sender[static_cast<std::size_t>(q)];
        }
      }
    }
    per_trial.push_back(total);
  }
  return {std::move(per_trial), std::move(per_sender)};
}

std::vector<int> bin_counts(const std::vector<int>& values,
                            const std::vector<int>& upper_bounds) {
  std::vector<int> bins(upper_bounds.size() + 1, 0);
  for (int v : values) {
    std::size_t bin = upper_bounds.size();
    for (std::size_t i = 0; i < upper_bounds.size(); ++i) {
      if (v <= upper_bounds[i]) {
        bin = i;
        break;
      }
    }
    ++bins[bin];
  }
  return bins;
}

bool omitted(const DeliveredRound& delivered, ProcessId q, ProcessId p) {
  return !delivered.by_receiver[static_cast<std::size_t>(p)].get(q);
}

bool altered(const DeliveredRound& delivered, ProcessId q, ProcessId p) {
  return delivered.altered(p).contains(q);
}

// -------------------------------------------------------------------------
// Adversary-layer distribution equivalence.
// -------------------------------------------------------------------------

TEST(KernelEquivalence, OmissionFaultCountsMatchPerLinkReference) {
  const int n = 9;
  const int trials = 600;
  const double p = 0.25;
  const int cap = 2;  // Bernoulli mean 2.25 > cap: the trim path is hot
  const auto intended = uniform_round(n);

  RandomOmissionAdversary kernel(p, cap);
  ReferenceOmissionAdversary reference(p, cap);
  const auto [kernel_totals, kernel_senders] =
      fault_counts(kernel, intended, trials, 0xA11CE, omitted);
  const auto [reference_totals, reference_senders] =
      fault_counts(reference, intended, trials, 0xB0B, omitted);

  // Per-receiver totals are capped sums: 9 receivers x min(cap, Binom(9,p)).
  const std::vector<int> edges{12, 13, 14, 15, 16};
  const double chi2 = chi_square_homogeneity(bin_counts(kernel_totals, edges),
                                             bin_counts(reference_totals, edges));
  EXPECT_LT(chi2, kCrit5) << "omission fault-count distribution diverged";

  // The cap trim must not bias which senders get dropped.
  EXPECT_LT(chi_square_uniform(kernel_senders), kCrit8);
  EXPECT_LT(chi_square_uniform(reference_senders), kCrit8);
}

TEST(KernelEquivalence, OmissionRespectsCapAndExactnessWithoutCap) {
  const int n = 10;
  const auto intended = uniform_round(n);
  RandomOmissionAdversary capped(0.9, 3);
  DeliveredRound delivered;
  for (int t = 0; t < 50; ++t) {
    Rng rng(mix_seed(0xCAFE, static_cast<std::uint64_t>(t)));
    delivered.assign_faithful(intended);
    capped.apply(intended, delivered, rng);
    for (ProcessId p = 0; p < n; ++p) {
      const int received =
          delivered.by_receiver[static_cast<std::size_t>(p)].count_received();
      EXPECT_GE(received, n - 3);
    }
  }

  // Degenerate probabilities short-circuit exactly like rng.chance did.
  RandomOmissionAdversary all(1.0, -1);
  delivered.assign_faithful(intended);
  Rng rng(7);
  all.apply(intended, delivered, rng);
  for (ProcessId p = 0; p < n; ++p)
    EXPECT_EQ(delivered.by_receiver[static_cast<std::size_t>(p)].count_received(),
              0);
  RandomOmissionAdversary none(0.0, -1);
  delivered.assign_faithful(intended);
  none.apply(intended, delivered, rng);
  for (ProcessId p = 0; p < n; ++p)
    EXPECT_EQ(delivered.by_receiver[static_cast<std::size_t>(p)].count_received(),
              n);
}

TEST(KernelEquivalence, CorruptionFaultCountsMatchPerLinkReference) {
  const int n = 9;
  const int trials = 600;
  RandomCorruptionConfig config;
  config.alpha = 3;
  config.attack_probability = 0.7;
  config.always_max = false;  // exercises the per-receiver count draw
  const auto intended = uniform_round(n);

  RandomCorruptionAdversary kernel(config);
  ReferenceCorruptionAdversary reference(config);
  const auto [kernel_totals, kernel_senders] =
      fault_counts(kernel, intended, trials, 0xD00D, altered);
  const auto [reference_totals, reference_senders] =
      fault_counts(reference, intended, trials, 0xFEED, altered);

  // Total altered links: 9 receivers x (0 w.p. 0.3, else uniform {1,2,3}).
  const std::vector<int> edges{8, 10, 12, 14, 16};
  const double chi2 = chi_square_homogeneity(bin_counts(kernel_totals, edges),
                                             bin_counts(reference_totals, edges));
  EXPECT_LT(chi2, kCrit5) << "corruption fault-count distribution diverged";

  // Floyd's draw must pick victims uniformly over senders.
  EXPECT_LT(chi_square_uniform(kernel_senders), kCrit8);
  EXPECT_LT(chi_square_uniform(reference_senders), kCrit8);

  // Per-receiver alteration budget (the P_alpha guarantee) still holds.
  DeliveredRound delivered;
  for (int t = 0; t < 50; ++t) {
    Rng rng(mix_seed(0x1DEA, static_cast<std::uint64_t>(t)));
    delivered.assign_faithful(intended);
    kernel.apply(intended, delivered, rng);
    for (ProcessId p = 0; p < n; ++p) {
      EXPECT_LE(delivered.altered(p).count(), config.alpha);
      EXPECT_TRUE(delivered.altered(p).is_subset_of(
          delivered.by_receiver[static_cast<std::size_t>(p)].support()));
    }
  }
}

// -------------------------------------------------------------------------
// End-to-end campaign equivalence: same scenarios, old kernel vs new,
// chi-square on termination and violation rates.
// -------------------------------------------------------------------------

struct CampaignRates {
  int terminated = 0;
  int violations = 0;
  int runs = 0;
};

CampaignRates run_rates(const AdversaryBuilder& adversary, int max_rounds) {
  CampaignConfig config;
  config.runs = 300;
  config.sim.max_rounds = max_rounds;
  config.base_seed = 0x5EED;
  Executor executor(1);
  const auto result =
      executor
          .submit([](Rng& rng) { return random_values(9, 3, rng); },
                  [](const std::vector<Value>& init) {
                    return make_ate_instance(AteParams::canonical(9, 2), init);
                  },
                  adversary, config)
          .take();
  return {result.terminated,
          result.agreement_violations + result.integrity_violations +
              result.irrevocability_violations,
          result.runs};
}

TEST(KernelEquivalence, OmissionCampaignTerminationRateMatchesReference) {
  // Horizon 25 with p = 0.2 leaves roughly a fifth of the runs terminated —
  // squarely between the degenerate 0/300 and 300/300 regimes.
  const auto kernel = run_rates(
      [] { return std::make_shared<RandomOmissionAdversary>(0.2); }, 25);
  const auto reference = run_rates(
      [] { return std::make_shared<ReferenceOmissionAdversary>(0.2, -1); }, 25);
  ASSERT_EQ(kernel.runs, 300);
  ASSERT_EQ(reference.runs, 300);
  // Both sides must sit in the scenario's non-degenerate regime, otherwise
  // the rate comparison proves nothing.
  EXPECT_GT(kernel.terminated, 0);
  EXPECT_LT(kernel.terminated, 300);
  EXPECT_LT(chi_square_rates(kernel.terminated, 300, reference.terminated, 300),
            kCrit1)
      << "kernel " << kernel.terminated << "/300 vs reference "
      << reference.terminated << "/300";
  // ate(9,2) under benign faults is safe by construction on both kernels.
  EXPECT_EQ(kernel.violations, 0);
  EXPECT_EQ(reference.violations, 0);
}

TEST(KernelEquivalence, CorruptionCampaignTerminationRateMatchesReference) {
  RandomCorruptionConfig config;
  config.alpha = 3;
  config.attack_probability = 0.8;
  config.always_max = false;
  // Horizon 10 keeps the attacked campaign in the partial-termination
  // regime (longer horizons let nearly every run terminate, which would
  // make the rate comparison vacuous).
  auto kernel_rates = run_rates(
      [config] { return std::make_shared<RandomCorruptionAdversary>(config); },
      10);
  auto reference_rates = run_rates(
      [config] { return std::make_shared<ReferenceCorruptionAdversary>(config); },
      10);
  ASSERT_EQ(kernel_rates.runs, 300);
  ASSERT_EQ(reference_rates.runs, 300);
  EXPECT_GT(kernel_rates.terminated, 0);
  EXPECT_LT(kernel_rates.terminated, 300);
  EXPECT_LT(chi_square_rates(kernel_rates.terminated, 300,
                             reference_rates.terminated, 300),
            kCrit1)
      << "kernel " << kernel_rates.terminated << "/300 vs reference "
      << reference_rates.terminated << "/300";
  EXPECT_EQ(kernel_rates.violations, reference_rates.violations);
}

}  // namespace
}  // namespace hoval
