/// Quickstart: solve consensus among 9 processes whose messages are being
/// corrupted, using the A_{T,E} algorithm of Biely et al. (PODC'07).
///
/// Build & run:  ./quickstart
///
/// The walk-through below is the library's intended usage pattern:
///   1. pick algorithm parameters for your corruption budget alpha,
///   2. build one process per participant with its initial value,
///   3. choose an environment (adversary) to run against,
///   4. run the simulator and inspect decisions + the ground-truth trace,
///   5. evaluate the paper's communication predicates on the trace,
///   6. scale the single run into a Monte-Carlo campaign on all cores.

#include <iostream>

#include "adversary/corruption.hpp"
#include "adversary/wrappers.hpp"
#include "core/factories.hpp"
#include "predicates/liveness.hpp"
#include "predicates/safety.hpp"
#include "sim/executor.hpp"
#include "sim/initial_values.hpp"
#include "sim/properties.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace hoval;

  // 1. Nine processes; we assume at most alpha = 2 corrupted messages per
  //    receiver per round (the paper's P_alpha).  Proposition 4's canonical
  //    thresholds are E = T = 2/3 (n + 2 alpha).
  const int n = 9;
  const int alpha = 2;
  const AteParams params = AteParams::canonical(n, alpha);
  std::cout << "algorithm: " << params.to_string() << "\n"
            << "theorem 1 conditions hold: " << std::boolalpha
            << params.theorem1_conditions() << "\n\n";

  // 2. Everyone proposes a value (here: maximally divergent proposals).
  const std::vector<Value> proposals = distinct_values(n);
  ProcessVector processes = make_ate_instance(params, proposals);

  // 3. Environment: worst-case P_alpha corruption on every round, except
  //    that every 5th round is clean — which is all P^{A,live} asks for.
  RandomCorruptionConfig corruption;
  corruption.alpha = alpha;
  GoodRoundConfig good;
  good.period = 5;
  auto adversary = std::make_shared<GoodRoundScheduler>(
      std::make_shared<RandomCorruptionAdversary>(corruption), good);

  // 4. Run.
  SimConfig config;
  config.max_rounds = 50;
  config.seed = 2024;
  Simulator simulator(std::move(processes), adversary, config);
  const RunResult result = simulator.run();

  std::cout << "rounds executed: " << result.rounds_executed << "\n";
  for (ProcessId p = 0; p < n; ++p) {
    std::cout << "  process " << p << " proposed " << proposals[p]
              << " -> decided "
              << (result.decisions[p] ? std::to_string(*result.decisions[p])
                                      : "nothing")
              << " at round "
              << (result.decision_rounds[p]
                      ? std::to_string(*result.decision_rounds[p])
                      : "-")
              << "\n";
  }

  const ConsensusReport report = check_consensus(proposals, result);
  std::cout << "\nconsensus check: " << report.summary() << "\n";

  // 5. The trace records the ground-truth HO/SHO sets; the paper's
  //    predicates are ordinary objects evaluated on it.
  const PAlpha p_alpha(alpha);
  const PALive p_alive(n, params.threshold_t, params.threshold_e, alpha);
  std::cout << p_alpha.name() << ": "
            << p_alpha.evaluate(result.trace).detail << "\n"
            << p_alive.name() << ": "
            << p_alive.evaluate(result.trace).detail << "\n";

  // Fault volume actually injected:
  int faults = 0;
  for (Round r = 1; r <= result.trace.round_count(); ++r)
    faults += result.trace.alteration_count(r);
  std::cout << "corrupted transmissions absorbed: " << faults << "\n";

  // 6. One run is an anecdote; campaigns are the evidence.  An Executor
  //    is a worker pool (0 -> one worker per core); submit() shards a
  //    campaign's runs across it while deriving every run's seeds from the
  //    run index, so the aggregate is bit-identical at any pool size.
  CampaignConfig campaign;
  campaign.runs = 500;
  campaign.sim.max_rounds = 50;
  campaign.base_seed = 2024;
  Executor executor(0);
  const CampaignResult stats =
      executor
          .submit([](Rng& rng) { return random_values(9, 3, rng); },
                  [params](const std::vector<Value>& init) {
                    return make_ate_instance(params, init);
                  },
                  [&corruption, &good] {
                    return std::make_shared<GoodRoundScheduler>(
                        std::make_shared<RandomCorruptionAdversary>(corruption),
                        good);
                  },
                  campaign)
          .take();
  std::cout << "\ncampaign (" << executor.threads()
            << " threads): " << stats.summary() << "\n";

  return report.all_hold() && stats.safety_clean() ? 0 : 1;
}
