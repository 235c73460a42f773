/// Experiment T1 — regenerates Table 1 ("Summary of results") empirically.
///
/// For each row of the paper's table (A_{T,E} and U_{T,E,alpha}) we run
/// Monte-Carlo campaigns under exactly the row's safety and liveness
/// predicates (adversaries enforce them by construction; evaluators verify
/// them on every trace) and report the measured Agreement / Integrity /
/// Termination outcomes plus decision latency.  A third section runs
/// *condition-violating* parameter choices and shows the constructed
/// violations — the conditions column of Table 1 is not decorative.

#include "bench/common.hpp"

namespace hoval {
namespace {

using bench::banner;
using bench::latency_cell;
using bench::ratio;
using bench::verdict;

struct RowResult {
  std::string algorithm;
  std::string safety_predicate;
  std::string liveness_predicate;
  std::string conditions;
  CampaignResult safety_campaign;   // adversarial, no liveness guarantee
  CampaignResult liveness_campaign; // with the liveness predicate enforced
  int safety_pred_holds = 0;
  int live_pred_holds = 0;
};

RowResult run_ate_row(int n, int alpha, Executor& executor) {
  const auto params = AteParams::canonical(n, alpha);
  RowResult row;
  row.algorithm = params.to_string();
  row.safety_predicate = "P_alpha(" + std::to_string(alpha) + ")";
  row.liveness_predicate = "P^{A,live}";
  row.conditions = std::string("n>E, n>T>=2(n+2a-E): ") +
                   (params.theorem1_conditions() ? "hold" : "FAIL");

  // Both campaigns as scenario documents; the p-alpha / p-a-live
  // evaluators default to the resolved algorithm's thresholds.
  ScenarioSpec safety;
  safety.algorithm = component("ate", {{"n", n}, {"alpha", alpha}});
  safety.values = component("random", {{"distinct", 3}});
  safety.adversaries = {component("corrupt", {{"alpha", alpha}})};
  safety.predicates = {component("p-alpha")};
  safety.campaign.runs = 200;
  safety.campaign.rounds = 40;
  safety.campaign.stop_when_all_decided = false;
  safety.campaign.seed = 1001;
  row.safety_campaign = bench::run_scenario_timed(safety, executor);
  row.safety_pred_holds = row.safety_campaign.predicate_holds[0];

  ScenarioSpec live = safety;
  live.adversaries.push_back(component("good-rounds", {{"period", 6}}));
  live.predicates = {component("p-a-live")};
  live.campaign.rounds = 60;
  live.campaign.seed = 1002;
  row.liveness_campaign = bench::run_scenario_timed(live, executor);
  row.live_pred_holds = row.liveness_campaign.predicate_holds[0];
  return row;
}

RowResult run_utea_row(int n, int alpha, Executor& executor) {
  const auto params = UteaParams::canonical(n, alpha);
  const PUSafe usafe(n, params.threshold_t, params.threshold_e, alpha);
  RowResult row;
  row.algorithm = params.to_string();
  row.safety_predicate = "P_alpha /\\ |SHO|>" + format_double(usafe.bound(), 1);
  row.liveness_predicate = "P^{U,live}";
  row.conditions = std::string("n>E>=n/2+a, n>T>=n/2+a: ") +
                   (params.theorem2_conditions() ? "hold" : "FAIL");

  ScenarioSpec safety;
  safety.algorithm = component("utea", {{"n", n}, {"alpha", alpha}});
  safety.values = component("random", {{"distinct", 3}});
  safety.adversaries = {component("corrupt", {{"alpha", alpha}}),
                        component("usafe-clamp")};
  safety.predicates = {component("p-alpha"), component("p-usafe")};
  safety.campaign.runs = 200;
  safety.campaign.rounds = 40;
  safety.campaign.stop_when_all_decided = false;
  safety.campaign.seed = 2001;
  row.safety_campaign = bench::run_scenario_timed(safety, executor);
  row.safety_pred_holds = std::min(row.safety_campaign.predicate_holds[0],
                                   row.safety_campaign.predicate_holds[1]);

  ScenarioSpec live = safety;
  live.adversaries.push_back(component("clean-phases", {{"period", 4}}));
  live.predicates = {component("p-u-live")};
  live.campaign.rounds = 80;
  live.campaign.seed = 2002;
  row.liveness_campaign = bench::run_scenario_timed(live, executor);
  row.live_pred_holds = row.liveness_campaign.predicate_holds[0];
  return row;
}

void print_rows(const std::vector<RowResult>& rows) {
  TablePrinter table({"algorithm", "safety predicate", "pred holds",
                      "agreement", "integrity", "liveness predicate",
                      "pred holds", "terminated", "decision round"},
                     {Align::kLeft, Align::kLeft, Align::kRight, Align::kRight,
                      Align::kRight, Align::kLeft, Align::kRight, Align::kRight,
                      Align::kRight});
  for (const auto& row : rows) {
    table.add_row(
        {row.algorithm, row.safety_predicate,
         ratio(row.safety_pred_holds, row.safety_campaign.runs),
         verdict(row.safety_campaign.agreement_violations == 0),
         verdict(row.safety_campaign.integrity_violations == 0),
         row.liveness_predicate,
         ratio(row.live_pred_holds, row.liveness_campaign.runs),
         ratio(row.liveness_campaign.terminated, row.liveness_campaign.runs),
         latency_cell(row.liveness_campaign)});
  }
  table.print(std::cout);
}

void negative_section(Executor& executor) {
  std::cout << "\nCondition-violating choices (the table's conditions are "
               "tight in shape):\n";
  TablePrinter table({"algorithm", "violated condition", "adversary",
                      "agreement violations", "integrity violations"},
                     {Align::kLeft, Align::kLeft, Align::kLeft, Align::kRight,
                      Align::kRight});

  // A with E < n/2 + alpha.
  {
    const AteParams bad{8, 6.0, 5.0, 2.0};
    ScenarioSpec spec;
    spec.algorithm = component("ate", {{"n", 8}, {"alpha", 2}, {"t", 6.0},
                                       {"e", 5.0}});
    spec.values = component("split", {{"lo", 1}, {"hi", 9}});
    spec.adversaries = {component(
        "split", {{"alpha", 2}, {"low_value", 1}, {"high_value", 9}})};
    spec.campaign.runs = 100;
    spec.campaign.rounds = 10;
    spec.campaign.seed = 3001;
    const auto result = bench::run_scenario_timed(spec, executor);
    table.add_row({bad.to_string(), "E < n/2 + alpha", "split-vote",
                   ratio(result.agreement_violations, result.runs),
                   ratio(result.integrity_violations, result.runs)});
  }

  // A with E < alpha (integrity attack).
  {
    const AteParams bad{8, 6.0, 2.0, 3.0};
    // The poison must undercut the genuine value (the decision rule picks
    // the smallest qualifying value deterministically).
    ScenarioSpec spec;
    spec.algorithm = component("ate", {{"n", 8}, {"alpha", 3}, {"t", 6.0},
                                       {"e", 2.0}});
    spec.values = component("unanimous", {{"value", 1}});
    spec.adversaries = {component(
        "corrupt", {{"alpha", 3}, {"style", "fixed"}, {"fixed_value", 0}})};
    spec.campaign.runs = 100;
    spec.campaign.rounds = 10;
    spec.campaign.seed = 3002;
    const auto undercut = bench::run_scenario_timed(spec, executor);
    table.add_row({bad.to_string(), "E < alpha", "undercut-poison",
                   ratio(undercut.agreement_violations, undercut.runs),
                   ratio(undercut.integrity_violations, undercut.runs)});
  }

  // U with T < n/2 + alpha.
  {
    const UteaParams bad{8, 4.0, 4.0, 2, 0};
    ScenarioSpec spec;
    spec.algorithm = component("utea", {{"n", 8}, {"alpha", 2}, {"t", 4.0},
                                        {"e", 4.0}});
    spec.values = component("split", {{"lo", 1}, {"hi", 9}});
    spec.adversaries = {component(
        "split", {{"alpha", 2}, {"low_value", 1}, {"high_value", 9}})};
    spec.campaign.runs = 100;
    spec.campaign.rounds = 10;
    spec.campaign.seed = 3003;
    const auto result = bench::run_scenario_timed(spec, executor);
    table.add_row({bad.to_string(), "T < n/2 + alpha (and E)", "split-vote",
                   ratio(result.agreement_violations, result.runs),
                   ratio(result.integrity_violations, result.runs)});
  }
  table.print(std::cout);
}

void run() {
  banner("Table 1 — summary of results, measured",
         "Biely et al., PODC'07, Table 1 (conditions, safety and liveness "
         "predicates of A_{T,E} and U_{T,E,alpha})");

  Executor executor = bench::make_bench_executor();
  std::vector<RowResult> rows;
  rows.push_back(run_ate_row(16, 3, executor));
  rows.push_back(run_ate_row(9, 2, executor));
  rows.push_back(run_utea_row(16, 7, executor));
  rows.push_back(run_utea_row(9, 4, executor));
  print_rows(rows);

  CsvWriter csv("bench_table1.csv",
                {"algorithm", "safety_agreement_ok", "safety_integrity_ok",
                 "liveness_terminated", "liveness_runs", "mean_decision_round"});
  for (const auto& row : rows)
    csv.add_row({row.algorithm,
                 std::to_string(row.safety_campaign.agreement_violations == 0),
                 std::to_string(row.safety_campaign.integrity_violations == 0),
                 std::to_string(row.liveness_campaign.terminated),
                 std::to_string(row.liveness_campaign.runs),
                 row.liveness_campaign.last_decision_rounds.empty()
                     ? "-"
                     : format_double(row.liveness_campaign.last_decision_rounds.mean(), 2)});

  negative_section(executor);
  std::cout << "\n[csv] bench_table1.csv written\n";
}

}  // namespace
}  // namespace hoval

int main() {
  hoval::bench::BenchRecorder recorder("table1");
  hoval::run();
  return 0;
}
