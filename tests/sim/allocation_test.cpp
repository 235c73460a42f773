/// Allocation-regression lock for the run hot path.
///
/// The bit-parallel kernel removed the last per-round heap traffic from
/// the simulation loop (the omission adversary's per-receiver order
/// vector, the corruption adversary's sample pools, the per-query payload
/// histograms).  This test pins that property: after one warm-up run has
/// grown every workspace buffer to its steady-state capacity, a full
/// simulated run — sending, adversary, ground truth, transitions — must
/// perform ZERO heap allocations.
///
/// Counting works by replacing global operator new/delete for this test
/// binary (each tests/*_test.cpp is its own executable, so the override
/// cannot leak into other tests) with a malloc-backed version that bumps
/// an atomic counter while a flag is armed.  The scenario is chosen so no
/// process ever decides (garbage corruption on every link leaves the
/// estimate histograms empty), because a first decision would legitimately
/// allocate while recording the decision — that is construction-time
/// behaviour, not round-loop behaviour.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "adversary/corruption.hpp"
#include "adversary/omission.hpp"
#include "adversary/wrappers.hpp"
#include "core/factories.hpp"
#include "predicates/safety.hpp"
#include "sim/simulator.hpp"
#include "sim/workspace.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};

void note_allocation() noexcept {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// Malloc-backed replacements so the counter sees every scalar/array
// allocation.  Aligned overloads are deliberately not replaced: the
// default aligned operator new/delete pair stays internally consistent,
// and no type on the hot path is over-aligned.
void* operator new(std::size_t size) {
  note_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hoval {
namespace {

/// Arms the allocation counter for one scope and reports the delta.
class CountScope {
 public:
  CountScope() : start_(g_allocations.load()) { g_counting.store(true); }
  ~CountScope() { g_counting.store(false); }
  long allocations() const { return g_allocations.load() - start_; }

 private:
  long start_;
};

/// Corruption garbles EVERY link (alpha = n, p = 1, kGarbage strips the
/// payload), then omission drops up to two links per receiver — together
/// they exercise the whole kernel (Bernoulli masks, Floyd draws, the cap
/// trim, put_altered, omit) while guaranteeing that no process can ever
/// decide: an estimate histogram with no payloads yields no decision
/// candidate, so the round loop stays free of decision-recording
/// allocations by construction.
std::shared_ptr<Adversary> garbage_everywhere(int n) {
  RandomCorruptionConfig corruption;
  corruption.alpha = n;
  corruption.attack_probability = 1.0;
  corruption.always_max = true;
  corruption.policy.style = CorruptionStyle::kGarbage;
  std::vector<std::shared_ptr<Adversary>> parts;
  parts.push_back(std::make_shared<RandomCorruptionAdversary>(corruption));
  parts.push_back(std::make_shared<RandomOmissionAdversary>(0.3, 2));
  return std::make_shared<ComposedAdversary>(std::move(parts));
}

TEST(Allocation, RoundLoopIsAllocationFreeAfterWarmUp) {
  const int n = 9;
  const auto params = AteParams::canonical(n, 2);
  std::vector<Value> initial;
  for (int i = 0; i < n; ++i) initial.push_back(i % 3);
  const auto adversary = garbage_everywhere(n);
  RunWorkspace workspace;
  SimConfig config;
  config.max_rounds = 30;

  const auto run_counted = [&](std::uint64_t seed) {
    config.seed = seed;
    // Construction (processes, workspace reset) may allocate; only the
    // round loop itself is counted.
    Simulator sim(make_ate_instance(params, initial), adversary, config,
                  &workspace);
    long counted = 0;
    {
      CountScope scope;
      while (sim.step()) {
      }
      counted = scope.allocations();
    }
    const auto result = sim.snapshot(/*include_trace=*/false);
    EXPECT_EQ(result.decided_count(), 0)
        << "scenario must stay undecided or the count includes legitimate "
           "decision-recording allocations";
    EXPECT_EQ(result.rounds_executed, 30);
    return counted;
  };

  // Warm-up: grows the trace records, histogram capacities and adversary
  // scratch to steady state.  Allocations here are expected and ignored.
  run_counted(0xF1257);

  // Steady state: every subsequent run must be allocation-free.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(run_counted(seed), 0)
        << "hot-path allocation regression at seed " << seed;
  }

  // Sanity: the hooks actually count (a deliberate allocation is seen).
  {
    CountScope scope;
    auto* leak_check = new std::vector<int>(128);
    delete leak_check;
    EXPECT_GE(scope.allocations(), 1);
  }
}

/// The daemon-served U_{T,E,alpha} stack: corruption clamped to P^{U,safe}
/// (SafetyClampAdversary's repair lists and restores) under clean phases
/// (Pi_0 omissions).  Its processes do decide, and recording a decision
/// may grow a process's decision log; every other allocation in a round
/// is a regression.  So each round must allocate exactly as often as the
/// decision logs changed capacity during it.
TEST(Allocation, ServedColdStackAllocatesOnlyToRecordDecisions) {
  // bench/suite/workloads/served_cold.json: utea n=9 alpha=4 under
  // corrupt(alpha=4) -> usafe-clamp -> clean-phases(period=4).
  const int n = 9;
  const int alpha = 4;
  const auto params = UteaParams::canonical(n, alpha);
  RandomCorruptionConfig corruption;
  corruption.alpha = alpha;
  const PUSafe usafe(n, params.threshold_t, params.threshold_e, alpha);
  CleanPhaseConfig clean;
  clean.period_phases = 4;
  const auto adversary = std::make_shared<CleanPhaseScheduler>(
      std::make_shared<SafetyClampAdversary>(
          std::make_shared<RandomCorruptionAdversary>(corruption),
          usafe.bound(), alpha),
      clean);
  std::vector<Value> initial;
  for (int i = 0; i < n; ++i) initial.push_back(i % 3);
  RunWorkspace workspace;
  SimConfig config;
  config.max_rounds = 60;
  config.stop_when_all_decided = false;
  std::vector<std::size_t> capacities(static_cast<std::size_t>(n));

  // Returns the allocations not explained by decision-log growth.
  const auto run_counted = [&](std::uint64_t seed) {
    config.seed = seed;
    Simulator sim(make_utea_instance(params, initial), adversary, config,
                  &workspace);
    long unexplained = 0;
    bool stepped = true;
    while (stepped) {
      for (std::size_t p = 0; p < capacities.size(); ++p)
        capacities[p] = sim.processes()[p]->decision_log().capacity();
      long counted = 0;
      {
        CountScope scope;
        stepped = sim.step();
        counted = scope.allocations();
      }
      long grown = 0;
      for (std::size_t p = 0; p < capacities.size(); ++p)
        if (sim.processes()[p]->decision_log().capacity() != capacities[p]) ++grown;
      unexplained += counted - grown;
    }
    EXPECT_EQ(sim.current_round(), 60);
    EXPECT_GT(sim.snapshot(/*include_trace=*/false).decided_count(), 0)
        << "the clean phases should let U decide";
    return unexplained;
  };

  run_counted(0xC01D);  // warm-up: workspace, trace and clamp scratch
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(run_counted(seed), 0)
        << "hot-path allocation regression at seed " << seed;
  }
}

}  // namespace
}  // namespace hoval
