/// Experiment E7 — threshold ablation for A_{T,E} (DESIGN.md E7).
///
/// Theorem 1 leaves a one-parameter family of (T, E) choices along the
/// frontier T = 2(n + 2*alpha - E) (Sec. 3.3 discusses why there is no
/// single "best" choice).  We sweep E and set T on the frontier, plus
/// off-frontier variants, and measure what each choice buys:
///   * larger E  -> smaller T (updates easier, liveness threshold lower)
///                  but decisions need more equal values;
///   * smaller E -> decisions cheaper but T grows towards n.
/// Safety must hold everywhere on/above the frontier; below it, the split
/// adversary constructs violations.
///
/// The (T, E) choice list drives three SweepSpecs — a liveness sweep
/// (corruption + good rounds), a same-round split-attack sweep, and a
/// cross-round lock-in sweep over the choices where the attack script
/// applies — each as one linked axis carrying the per-point thresholds
/// and historical seeds.

#include "bench/common.hpp"

#include "adversary/lock_in.hpp"

namespace hoval {
namespace {

using bench::banner;
using bench::latency_cell;
using bench::ratio;
using bench::verdict;

struct Choice {
  double e;
  double t;
  std::string kind;
};

/// One linked (T, E, seed) axis over `choices` on top of `base`.
SweepSpec threshold_sweep(ScenarioSpec base, const std::vector<Choice>& choices,
                          std::uint64_t seed_offset) {
  SweepSpec sweep;
  sweep.base = std::move(base);
  SweepAxis axis;
  axis.paths = {"algorithm.params.t", "algorithm.params.e", "campaign.seed"};
  for (const Choice& choice : choices) {
    const std::uint64_t seed =
        mix_seed(static_cast<std::uint64_t>(choice.e * 100),
                 static_cast<std::uint64_t>(choice.t * 100));
    axis.points.push_back(
        {Json(choice.t), Json(choice.e), Json(derived_seed(seed, seed_offset))});
  }
  sweep.axes.push_back(std::move(axis));
  return sweep;
}

void run() {
  banner("Threshold ablation — the T vs E trade of Sec. 3.3",
         "Biely et al., PODC'07, Sec. 3.3 (the 'best choices' discussion)");

  const int n = 12;
  const int alpha = 2;

  TablePrinter table({"E", "T", "on frontier?", "thm 1", "agreement",
                      "terminated", "decision round"},
                     {Align::kRight, Align::kRight, Align::kLeft, Align::kRight,
                      Align::kRight, Align::kRight, Align::kRight});
  CsvWriter csv("bench_ablation_thresholds.csv",
                {"e", "t", "frontier", "theorem1", "agreement_violations",
                 "terminated", "runs", "mean_decision_round"});

  std::vector<Choice> choices;
  for (const double e : {8.5, 9.5, 10.0, 10.67, 11.5}) {
    const double frontier_t = 2.0 * (n + 2.0 * alpha - e);
    if (frontier_t < n)
      choices.push_back({e, frontier_t, "frontier"});
    const double t2 = std::min<double>(n - 0.5, frontier_t + 1.5);
    choices.push_back(
        {e, t2, t2 >= frontier_t ? "above frontier" : "T below frontier"});
  }
  // Below-frontier picks that violate E >= n/2 + alpha (= 8).
  choices.push_back({7.0, 9.0, "below (E < n/2+a)"});
  choices.push_back({7.5, 11.0, "below (E < n/2+a)"});

  // Liveness environment: corruption + good rounds every 6.
  ScenarioSpec live_base;
  live_base.algorithm = component("ate", {{"n", n}, {"alpha", alpha}});
  live_base.adversaries = {component("corrupt", {{"alpha", alpha}}),
                           component("good-rounds", {{"period", 6}})};
  live_base.values = component("random", {{"distinct", 3}});
  live_base.campaign.runs = 80;
  live_base.campaign.rounds = 60;
  // One pool serves all three environment sweeps below.
  Executor executor = bench::make_bench_executor();
  const auto live_results =
      bench::run_sweep_timed(threshold_sweep(live_base, choices, 0), executor);

  // Safety environment 1: the same-round split attack (kills E below
  // n/2 + alpha).
  ScenarioSpec attack_base;
  attack_base.algorithm = component("ate", {{"n", n}, {"alpha", alpha}});
  attack_base.adversaries = {component(
      "split", {{"alpha", alpha}, {"low_value", 1}, {"high_value", 9}})};
  attack_base.values = component("split", {{"lo", 1}, {"hi", 9}});
  attack_base.campaign.runs = 80;
  attack_base.campaign.rounds = 20;
  const auto attack_results = bench::run_sweep_timed(
      threshold_sweep(attack_base, choices, 1), executor);

  // Safety environment 2: the cross-round lock-in attack (kills T below
  // the 2(n + 2*alpha - E) frontier even when E is fine), where its
  // script applies.
  std::vector<Choice> lock_choices;
  for (const Choice& choice : choices)
    if (lock_in_feasible(n, choice.t, choice.e, alpha))
      lock_choices.push_back(choice);
  ScenarioSpec lock_base;
  lock_base.algorithm = component("ate", {{"n", n}, {"alpha", alpha}});
  lock_base.adversaries = {component("lockin", {{"alpha", alpha}})};
  lock_base.values = component("split", {{"lo", 0}, {"hi", 1}});
  lock_base.campaign.runs = 80;
  lock_base.campaign.rounds = 10;
  lock_base.campaign.stop_when_all_decided = false;
  const auto lock_results = bench::run_sweep_timed(
      threshold_sweep(lock_base, lock_choices, 2), executor);

  std::size_t next_lock = 0;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    const Choice& choice = choices[i];
    const AteParams params{n, choice.t, choice.e, static_cast<double>(alpha)};
    const CampaignResult& live = live_results[i];
    const CampaignResult& attacked = attack_results[i];
    int lock_in_violations = 0;
    if (lock_in_feasible(n, params.threshold_t, params.threshold_e, alpha))
      lock_in_violations = lock_results[next_lock++].agreement_violations;

    const int violations = live.agreement_violations +
                           attacked.agreement_violations + lock_in_violations;
    table.add_row({format_double(choice.e, 2), format_double(choice.t, 2),
                   choice.kind, params.theorem1_conditions() ? "holds" : "fails",
                   violations == 0 ? "ok" : std::to_string(violations) + " viol.",
                   ratio(live.terminated, live.runs), latency_cell(live)});
    csv.add_row({format_double(choice.e, 3), format_double(choice.t, 3),
                 choice.kind, std::to_string(params.theorem1_conditions()),
                 std::to_string(violations), std::to_string(live.terminated),
                 std::to_string(live.runs),
                 live.last_decision_rounds.empty()
                     ? "-"
                     : format_double(live.last_decision_rounds.mean(), 2)});
  }
  table.print(std::cout);

  std::cout
      << "\nReading: every Theorem-1 point is safe; the frontier trades the\n"
         "update threshold T against the decision threshold E (Sec. 3.3:\n"
         "no best choice without extra assumptions — E = T = 2/3(n+2a) is\n"
         "the symmetric compromise).  Points with E below n/2 + alpha are\n"
         "torn apart by the split adversary within one round.\n"
         "[csv] bench_ablation_thresholds.csv written\n";
}

}  // namespace
}  // namespace hoval

int main() {
  hoval::bench::BenchRecorder recorder("ablation_thresholds");
  hoval::run();
  return 0;
}
