/// Experiment F1 — the P^{A,live} predicate of Figure 1 in action.
///
/// Liveness of A_{T,E} does not need stabilisation: it needs *sporadic*
/// good rounds.  We sweep the gap g between rounds satisfying P^{A,live}'s
/// coordinated clause (all other rounds suffer worst-case P_alpha
/// corruption) and measure the decision latency.  Expected shape: latency
/// tracks the good-round schedule (decide around the first or second good
/// round), independent of how hostile the rounds in between are.  A second
/// sweep shows the *minimal* good round (|Pi1| just above E-alpha, |Pi2|
/// just above T) suffices, as Figure 1 promises.

#include "bench/common.hpp"

namespace hoval {
namespace {

using bench::banner;
using bench::latency_cell;
using bench::ratio;

void run() {
  banner("Figure 1 — P^{A,live}: sporadic good rounds drive termination",
         "Biely et al., PODC'07, Fig. 1 and Proposition 3");
  Executor executor = bench::make_bench_executor();

  const int n = 12;
  const int alpha = 2;
  const auto params = AteParams::canonical(n, alpha);
  std::cout << "algorithm: " << params.to_string()
            << "   (corruption at the P_alpha limit on every non-good round)\n\n";

  TablePrinter table({"good-round gap g", "good round type", "terminated",
                      "mean decision round", "p90", "max"},
                     {Align::kRight, Align::kLeft, Align::kRight, Align::kRight,
                      Align::kRight, Align::kRight});
  CsvWriter csv("bench_fig1_alive.csv",
                {"gap", "minimal", "terminated", "runs", "mean_round",
                 "p90_round", "max_round"});

  for (const int gap : {2, 5, 10, 20, 40}) {
    for (const bool minimal : {false, true}) {
      // The whole experiment as data: worst-case P_alpha corruption with a
      // P^{A,live} good round every `gap` rounds (the good-rounds layer
      // derives the minimal Pi1/Pi2 sizes from the resolved thresholds).
      ScenarioSpec spec;
      spec.description = "Fig. 1: sporadic good rounds drive termination";
      spec.algorithm = component("ate", {{"n", n}, {"alpha", alpha}});
      spec.values = component("random", {{"distinct", 3}});
      spec.adversaries = {
          component("corrupt", {{"alpha", alpha}}),
          component("good-rounds", {{"period", gap}, {"minimal", minimal}})};
      spec.campaign.runs = 150;
      spec.campaign.rounds = 3 * gap + 20;
      spec.campaign.seed = derived_seed(0xF16A, static_cast<std::uint64_t>(gap));

      const auto result = bench::run_scenario_timed(spec, executor);

      const std::string kind = minimal ? "minimal Pi1/Pi2" : "fully clean";
      if (result.last_decision_rounds.empty()) {
        table.add_row({std::to_string(gap), kind,
                       ratio(result.terminated, result.runs), "-", "-", "-"});
        csv.add_row({std::to_string(gap), std::to_string(minimal),
                     std::to_string(result.terminated),
                     std::to_string(result.runs), "-", "-", "-"});
        continue;
      }
      table.add_row({std::to_string(gap), kind,
                     ratio(result.terminated, result.runs),
                     format_double(result.last_decision_rounds.mean(), 1),
                     format_double(result.last_decision_rounds.quantile(0.9), 1),
                     format_double(result.last_decision_rounds.max(), 0)});
      csv.add_row({std::to_string(gap), std::to_string(minimal),
                   std::to_string(result.terminated), std::to_string(result.runs),
                   format_double(result.last_decision_rounds.mean(), 3),
                   format_double(result.last_decision_rounds.quantile(0.9), 3),
                   format_double(result.last_decision_rounds.max(), 0)});
    }
  }
  table.print(std::cout);

  std::cout
      << "\nReading: decision latency scales with the good-round gap (the\n"
         "first coordinated round creates agreement on the estimates, a\n"
         "later |SHO| > E round decides).  Minimal good rounds — exactly\n"
         "the Pi1/Pi2 structure of Fig. 1, nothing more — behave like\n"
         "fully clean rounds, confirming the predicate is what matters.\n"
         "[csv] bench_fig1_alive.csv written\n";
}

}  // namespace
}  // namespace hoval

int main() {
  hoval::bench::BenchRecorder recorder("fig1_alive");
  hoval::run();
  return 0;
}
