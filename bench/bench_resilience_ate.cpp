/// Experiment E1 — Sec. 3.3: A_{T,E} solves consensus iff alpha < n/4.
///
/// For each n we search the E = T threshold grid (the paper's Sec. 3.3
/// symmetric choice) for a Theorem-1-satisfying instantiation, verify the
/// surviving instantiations empirically (safety under worst-case P_alpha
/// corruption, termination under P^{A,live}), and report the measured
/// maximal alpha.  Expected crossover: max alpha = ceil(n/4) - 1, and the
/// canonical E = T = 2/3(n + 2*alpha) of Proposition 4 is always among
/// the feasible choices.

#include "bench/common.hpp"

namespace hoval {
namespace {

using bench::banner;
using bench::ratio;

/// The scenario shared by both validation campaigns: the exact A_{T,E}
/// choice under worst-case P_alpha corruption on random values.
ScenarioSpec base_scenario(const AteParams& params) {
  ScenarioSpec spec;
  spec.algorithm = component("ate", {{"n", params.n},
                                     {"alpha", params.alpha},
                                     {"t", params.threshold_t},
                                     {"e", params.threshold_e}});
  spec.values = component("random", {{"distinct", 3}});
  spec.adversaries = {
      component("corrupt", {{"alpha", static_cast<int>(params.alpha)}})};
  return spec;
}

/// Empirically validates one parameter choice; returns true when safety
/// held in every run and termination was reached in every good-round run.
bool validate(const AteParams& params, std::uint64_t seed,
              Executor& executor) {
  ScenarioSpec safety = base_scenario(params);
  safety.campaign.runs = 60;
  safety.campaign.rounds = 25;
  safety.campaign.stop_when_all_decided = false;
  safety.campaign.seed = seed;
  const auto unsafe_result = bench::run_scenario_timed(safety, executor);
  if (!unsafe_result.safety_clean()) return false;

  ScenarioSpec live = base_scenario(params);
  live.adversaries.push_back(component("good-rounds", {{"period", 5}}));
  live.campaign.runs = 40;
  live.campaign.rounds = 40;
  live.campaign.seed = derived_seed(seed, 1);
  const auto live_result = bench::run_scenario_timed(live, executor);
  return live_result.safety_clean() && live_result.terminated == live_result.runs;
}

void run(Executor& executor) {
  banner("Resilience of A_{T,E} — the alpha < n/4 crossover",
         "Biely et al., PODC'07, Sec. 3.3 (inequalities (4)-(6), Prop. 4)");

  TablePrinter table({"n", "paper bound ceil(n/4)-1", "measured max alpha",
                      "canonical E=T at max", "theorem holds", "empirical"},
                     {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                      Align::kRight, Align::kRight});
  CsvWriter csv("bench_resilience_ate.csv",
                {"n", "alpha", "feasible_by_theorem", "empirically_valid"});

  for (const int n : {8, 12, 16, 24, 32, 48, 64}) {
    int measured_max = -1;
    bool canonical_ok_at_max = false;

    for (int alpha = 0; alpha <= n / 2; ++alpha) {
      // Grid search over symmetric E = T choices in half-steps, plus the
      // canonical point.
      bool feasible = false;
      AteParams chosen{};
      for (double e = n / 2.0; e < n; e += 0.5) {
        const AteParams candidate{n, e, e, static_cast<double>(alpha)};
        if (candidate.theorem1_conditions()) {
          feasible = true;
          chosen = candidate;
          break;
        }
      }
      if (const auto canonical = AteParams::feasible(n, alpha)) {
        feasible = true;
        chosen = *canonical;
      }

      bool empirical = false;
      if (feasible)
        empirical = validate(
            chosen,
            mix_seed(static_cast<std::uint64_t>(n),
                     static_cast<std::uint64_t>(alpha)),
            executor);
      csv.add_row({std::to_string(n), std::to_string(alpha),
                   std::to_string(feasible), std::to_string(empirical)});
      if (feasible && empirical) {
        measured_max = alpha;
        canonical_ok_at_max = AteParams::feasible(n, alpha).has_value();
      }
      if (!feasible && alpha > AteParams::max_tolerated_alpha(n)) break;
    }

    const int paper_bound = AteParams::max_tolerated_alpha(n);
    table.add_row({std::to_string(n), std::to_string(paper_bound),
                   std::to_string(measured_max),
                   format_double(2.0 / 3.0 * (n + 2.0 * measured_max), 2),
                   measured_max == paper_bound ? "match" : "MISMATCH",
                   canonical_ok_at_max ? "canonical valid" : "-"});
  }
  table.print(std::cout);

  std::cout
      << "\nReading: the measured maximal alpha equals ceil(n/4)-1 for every\n"
         "n — the Sec. 3.3 crossover.  Above it, no E = T < n satisfies\n"
         "T >= 2(n + 2*alpha - E), so the liveness predicate P^{A,live}\n"
         "becomes unsatisfiable (n > T, n > E are required for good rounds\n"
         "to exist).  At alpha = 0 the feasible set contains E = T = 2n/3:\n"
         "OneThirdRule, the benign special case.\n"
         "[csv] bench_resilience_ate.csv written\n";
}

/// The omission-termination threshold of the canonical A_{T,E}(16, 3),
/// hunted adaptively: instead of a dense drop-probability grid, the
/// refined sweep (src/refine/) subdivides only where adjacent points'
/// Wilson intervals of the termination rate disagree — so the runs
/// concentrate on the collapse of the curve, not its plateaus.
void refined_omission_threshold(Executor& executor) {
  banner("Adaptive refinement — where A_{T,E}'s termination collapses "
         "under omission",
         "src/refine on the Sec. 3.3 canonical instantiation (n=16, alpha=3)");

  SweepSpec sweep;
  sweep.base = base_scenario(*AteParams::feasible(16, 3));
  sweep.base.adversaries = {component(
      "omit", {{"drop_probability", 0.0}, {"max_per_receiver", 16}})};
  sweep.base.campaign.runs = 40;
  sweep.base.campaign.rounds = 25;
  sweep.base.campaign.seed = 4242;
  sweep.axes.push_back(SweepAxis::single(
      "adversary.0.params.drop_probability",
      {Json(0.0), Json(0.25), Json(0.5), Json(0.75), Json(1.0)}));
  sweep.refine.enabled = true;
  sweep.refine.max_depth = 3;
  sweep.refine.max_points = 24;
  sweep.refine.monitor.kind = MonitorSelector::Kind::kTermination;

  const RefinedSweepResult refined =
      bench::run_refined_sweep_timed(sweep, executor);

  TablePrinter table({"drop probability", "generation", "terminated"},
                     {Align::kRight, Align::kRight, Align::kRight});
  CsvWriter csv("bench_resilience_ate_refined.csv",
                {"drop_probability", "generation", "terminated",
                 "runs"});
  for (const RefinedPoint& point : refined.points) {
    const std::string drop = point.coordinates.front().dump();
    table.add_row({drop, std::to_string(point.generation),
                   ratio(point.result.terminated, point.result.runs)});
    csv.add_row({drop, std::to_string(point.generation),
                 std::to_string(point.result.terminated),
                 std::to_string(point.result.runs)});
  }
  table.print(std::cout);

  std::cout << "\nrefined " << refined.points.size() << " points in "
            << refined.generations << " generations: "
            << refined.runs_executed << " runs executed vs "
            << refined.dense_runs_estimate << " dense-grid runs, saved "
            << format_double(refined.runs_saved_pct(), 1) << "%\n"
            << "[csv] bench_resilience_ate_refined.csv written\n";
}

}  // namespace
}  // namespace hoval

int main() {
  hoval::bench::BenchRecorder recorder("resilience_ate");
  hoval::Executor executor = hoval::bench::make_bench_executor();
  hoval::run(executor);
  hoval::refined_omission_threshold(executor);
  return 0;
}
