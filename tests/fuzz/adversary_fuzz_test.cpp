/// Randomised adversary-composition fuzzing: build random stacks of
/// adversaries (corruption, omission, block faults, static Byzantine,
/// transient windows, bursts), clamp them to the algorithms' assumed
/// predicates, and assert the safety half of the theorems over hundreds
/// of random configurations.  This hunts for interactions that the
/// targeted tests do not cover (e.g. omissions + corruption + windows).

#include <gtest/gtest.h>

#include "adversary/block_fault.hpp"
#include "adversary/byzantine.hpp"
#include "adversary/corruption.hpp"
#include "adversary/omission.hpp"
#include "adversary/wrappers.hpp"
#include "core/factories.hpp"
#include "predicates/safety.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"
#include "sim/initial_values.hpp"

namespace hoval {
namespace {

/// Runs one campaign on a pool shared by every test in this file.
CampaignResult run_via_pool(const ValueGenerator& values,
                            const InstanceBuilder& instance,
                            const AdversaryBuilder& adversary,
                            const CampaignConfig& config) {
  static Executor executor;
  return executor.submit(values, instance, adversary, config).take();
}

/// Draws a random raw adversary (before clamping).
std::shared_ptr<Adversary> random_raw_adversary(Rng& rng, int /*n*/, int alpha) {
  std::vector<std::shared_ptr<Adversary>> parts;
  const int layers = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < layers; ++i) {
    switch (rng.below(5)) {
      case 0: {
        RandomCorruptionConfig config;
        config.alpha = 1 + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(alpha) + 1));
        config.attack_probability = 0.3 + 0.7 * rng.uniform();
        config.always_max = rng.chance(0.5);
        config.policy.style = static_cast<CorruptionStyle>(rng.below(4));
        parts.push_back(std::make_shared<RandomCorruptionAdversary>(config));
        break;
      }
      case 1:
        parts.push_back(std::make_shared<RandomOmissionAdversary>(
            0.3 * rng.uniform(), static_cast<int>(rng.below(3))));
        break;
      case 2: {
        BlockFaultConfig config;
        config.mode = rng.chance(0.5) ? BlockFaultMode::kCorrupt
                                      : BlockFaultMode::kOmit;
        config.rotate = rng.chance(0.5);
        parts.push_back(std::make_shared<BlockFaultAdversary>(config));
        break;
      }
      case 3: {
        StaticByzantineConfig config;
        config.f = 1 + static_cast<int>(rng.below(
                           static_cast<std::uint64_t>(alpha) + 1));
        config.mode = static_cast<ByzantineMode>(rng.below(5));
        parts.push_back(std::make_shared<StaticByzantineAdversary>(config));
        break;
      }
      default: {
        RandomCorruptionConfig config;
        config.alpha = alpha;
        auto inner = std::make_shared<RandomCorruptionAdversary>(config);
        const int period = 3 + static_cast<int>(rng.below(6));
        const int burst = 1 + static_cast<int>(rng.below(
                                  static_cast<std::uint64_t>(period)));
        parts.push_back(
            std::make_shared<PeriodicBurstAdversary>(inner, period, burst));
        break;
      }
    }
  }
  return std::make_shared<ComposedAdversary>(std::move(parts));
}

TEST(AdversaryFuzz, AteSafetyUnderClampedRandomStacks) {
  Rng master(0xF022);
  int configurations = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 6 + static_cast<int>(master.below(12));
    const int max_alpha = AteParams::max_tolerated_alpha(n);
    if (max_alpha < 1) continue;
    const int alpha =
        1 + static_cast<int>(master.below(static_cast<std::uint64_t>(max_alpha)));
    const auto params = AteParams::canonical(n, alpha);
    const std::uint64_t stack_seed = master.next();

    CampaignConfig config;
    config.runs = 6;
    config.sim.max_rounds = 25;
    config.sim.stop_when_all_decided = false;
    config.base_seed = master.next();
    config.predicates.push_back(std::make_shared<PAlpha>(alpha));

    const auto result = run_via_pool(
        [n](Rng& rng) { return random_values(n, 4, rng); },
        [params](const std::vector<Value>& init) {
          return make_ate_instance(params, init);
        },
        [&, stack_seed] {
          Rng stack_rng(stack_seed);
          // Clamp whatever the stack does to the P_alpha budget the
          // algorithm was instantiated for (omissions stay unbounded:
          // A_{T,E}'s safety does not constrain liveness of links).
          return std::make_shared<SafetyClampAdversary>(
              random_raw_adversary(stack_rng, n, alpha), /*min_sho=*/-1.0,
              /*max_aho=*/alpha);
        },
        config);

    ++configurations;
    EXPECT_TRUE(result.safety_clean())
        << "n=" << n << " alpha=" << alpha << " trial=" << trial << " — "
        << (result.violations.empty() ? result.summary()
                                      : result.violations.front());
    EXPECT_EQ(result.predicate_holds[0], result.runs)
        << "clamp failed to enforce P_alpha at n=" << n;
  }
  EXPECT_GT(configurations, 40);
}

TEST(AdversaryFuzz, UteaSafetyUnderClampedRandomStacks) {
  Rng master(0xF0BB);
  int configurations = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 6 + static_cast<int>(master.below(12));
    const int max_alpha = UteaParams::max_tolerated_alpha(n);
    if (max_alpha < 1) continue;
    const int alpha =
        1 + static_cast<int>(master.below(static_cast<std::uint64_t>(max_alpha)));
    const auto params = UteaParams::canonical(n, alpha);
    const PUSafe bound(n, params.threshold_t, params.threshold_e, alpha);
    const std::uint64_t stack_seed = master.next();

    CampaignConfig config;
    config.runs = 6;
    config.sim.max_rounds = 30;
    config.sim.stop_when_all_decided = false;
    config.base_seed = master.next();
    config.predicates.push_back(std::make_shared<PUSafe>(
        n, params.threshold_t, params.threshold_e, alpha));

    const auto result = run_via_pool(
        [n](Rng& rng) { return random_values(n, 4, rng); },
        [params](const std::vector<Value>& init) {
          return make_utea_instance(params, init);
        },
        [&, stack_seed] {
          Rng stack_rng(stack_seed);
          return std::make_shared<SafetyClampAdversary>(
              random_raw_adversary(stack_rng, n, alpha), bound.bound(), alpha);
        },
        config);

    ++configurations;
    EXPECT_TRUE(result.safety_clean())
        << "n=" << n << " alpha=" << alpha << " trial=" << trial << " — "
        << (result.violations.empty() ? result.summary()
                                      : result.violations.front());
    EXPECT_EQ(result.predicate_holds[0], result.runs)
        << "clamp failed to enforce P^{U,safe} at n=" << n;
  }
  EXPECT_GT(configurations, 40);
}

TEST(AdversaryFuzz, TraceInvariantsUnderRawStacks) {
  // Even *without* clamping, the simulator's ground-truth traces must be
  // well-formed: SHO ⊆ HO everywhere, kernel ⊆ every HO, AS = union of
  // AHOs, fault counters consistent.
  Rng master(0xF0CC);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 5 + static_cast<int>(master.below(10));
    const std::uint64_t stack_seed = master.next();
    Rng stack_rng(stack_seed);

    SimConfig config;
    config.max_rounds = 12;
    config.stop_when_all_decided = false;
    config.seed = master.next();
    Simulator sim(make_one_third_rule_instance(n, distinct_values(n)),
                  random_raw_adversary(stack_rng, n, std::max(1, n / 4)),
                  config);
    const auto result = sim.run();

    for (Round r = 1; r <= result.trace.round_count(); ++r) {
      const auto kernel = result.trace.kernel(r);
      const auto safe_kernel = result.trace.safe_kernel(r);
      ASSERT_TRUE(safe_kernel.is_subset_of(kernel));
      ProcessSet rebuilt_span(n);
      int total_alterations = 0;
      for (ProcessId p = 0; p < n; ++p) {
        const auto& rec = result.trace.record(p, r);
        ASSERT_TRUE(rec.sho.is_subset_of(rec.ho));
        ASSERT_TRUE(kernel.is_subset_of(rec.ho));
        rebuilt_span = rebuilt_span.unite(rec.aho());
        total_alterations += rec.aho().count();
      }
      ASSERT_EQ(rebuilt_span, result.trace.altered_span(r));
      ASSERT_EQ(total_alterations, result.trace.alteration_count(r));
    }
  }
}

}  // namespace
}  // namespace hoval
