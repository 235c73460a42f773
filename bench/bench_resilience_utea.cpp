/// Experiment E2 — Sec. 4.3: U_{T,E,alpha} solves consensus iff alpha < n/2,
/// and the who-wins comparison against A_{T,E} (n/4 wall vs n/2 wall).
///
/// The (n, alpha) grid runs as two SweepSpecs — a safety sweep (clamped
/// corruption, no clean phases, fixed horizon) and a liveness sweep (clean
/// phases every 3) — each with one linked axis enumerating the
/// theorem-feasible points with their historical per-point seeds.

#include "bench/common.hpp"

namespace hoval {
namespace {

using bench::banner;
using bench::ratio;

struct GridPoint {
  int n = 0;
  int alpha = 0;
  std::uint64_t seed = 0;
};

const int kSizes[] = {8, 12, 16, 24, 32};

/// Scenario base shared by both sweeps: canonical U(n, alpha) under
/// P^{U,safe}-clamped worst-case corruption.
SweepSpec clamped_sweep(const std::vector<GridPoint>& grid,
                        std::uint64_t seed_offset) {
  SweepSpec sweep;
  sweep.base.algorithm = component("utea");
  sweep.base.adversaries = {component("corrupt"), component("usafe-clamp")};
  sweep.base.values = component("random", {{"distinct", 3}});
  SweepAxis axis;
  axis.paths = {"algorithm.params.n", "algorithm.params.alpha",
                "adversary.0.params.alpha", "campaign.seed"};
  for (const GridPoint& point : grid)
    axis.points.push_back({Json(point.n), Json(point.alpha), Json(point.alpha),
                           Json(derived_seed(point.seed, seed_offset))});
  sweep.axes.push_back(std::move(axis));
  return sweep;
}

void run(Executor& executor) {
  banner("Resilience of U_{T,E,alpha} — the alpha < n/2 crossover",
         "Biely et al., PODC'07, Sec. 4.3 (inequalities (9)-(11))");

  // The theorem-feasible grid, with the historical per-point base seeds.
  std::vector<GridPoint> grid;
  for (const int n : kSizes)
    for (int alpha = 0; alpha <= n; ++alpha) {
      if (!UteaParams::feasible(n, alpha)) continue;
      grid.push_back({n, alpha,
                      mix_seed(static_cast<std::uint64_t>(n),
                               static_cast<std::uint64_t>(alpha), 99)});
    }

  // Both sweeps share the binary's pool: the safety grid's early
  // finishers feed workers straight into the liveness grid's points.
  // Safety: worst-case clamped corruption on every round, no termination
  // aid, long enough to surface an agreement split if one exists.
  SweepSpec safety = clamped_sweep(grid, 0);
  safety.base.campaign.runs = 60;
  safety.base.campaign.rounds = 30;
  safety.base.campaign.stop_when_all_decided = false;
  const auto safety_results = bench::run_sweep_timed(safety, executor);

  // Liveness: the same adversary with P^{U,live} clean phases every 3.
  SweepSpec live = clamped_sweep(grid, 1);
  live.base.adversaries.push_back(
      component("clean-phases", {{"period", 3}}));
  live.base.campaign.runs = 40;
  live.base.campaign.rounds = 60;
  const auto live_results = bench::run_sweep_timed(live, executor);

  TablePrinter table({"n", "paper bound ceil(n/2)-1", "measured max alpha",
                      "A's wall ceil(n/4)-1", "U beats A by"},
                     {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                      Align::kRight});
  CsvWriter csv("bench_resilience_utea.csv",
                {"n", "alpha", "feasible_by_theorem", "empirically_valid"});

  std::size_t next_point = 0;
  for (const int n : kSizes) {
    int measured_max = -1;
    for (int alpha = 0; alpha <= n; ++alpha) {
      const bool feasible = UteaParams::feasible(n, alpha).has_value();
      bool empirical = false;
      if (feasible) {
        const CampaignResult& unsafe_result = safety_results[next_point];
        const CampaignResult& live_result = live_results[next_point];
        ++next_point;
        empirical = unsafe_result.safety_clean() &&
                    live_result.safety_clean() &&
                    live_result.terminated == live_result.runs;
      }
      csv.add_row({std::to_string(n), std::to_string(alpha),
                   std::to_string(feasible), std::to_string(empirical)});
      if (feasible && empirical) measured_max = alpha;
      if (!feasible && alpha > UteaParams::max_tolerated_alpha(n)) break;
    }

    const int paper_bound = UteaParams::max_tolerated_alpha(n);
    const int a_bound = AteParams::max_tolerated_alpha(n);
    table.add_row({std::to_string(n), std::to_string(paper_bound),
                   std::to_string(measured_max), std::to_string(a_bound),
                   (measured_max == paper_bound
                        ? "+" + std::to_string(measured_max - a_bound)
                        : "MISMATCH")});
  }
  table.print(std::cout);

  std::cout
      << "\nReading: U tolerates alpha right up to (but excluding) n/2 —\n"
         "roughly double A's n/4 wall (the who-wins flip of Sec. 4.3).\n"
         "The price appears in the predicate column of Table 1: U needs\n"
         "P^{U,safe} — a *permanent* lower bound |SHO(p,r)| > n/2 + alpha —\n"
         "while A's safety needs nothing beyond P_alpha.\n"
         "[csv] bench_resilience_utea.csv written\n";
}

/// The omission-termination threshold of the canonical U(12, 2), hunted
/// adaptively by src/refine/: the drop-probability axis is subdivided only
/// where adjacent points' Wilson intervals of the termination rate
/// disagree, so the runs land on the collapse of the curve instead of a
/// uniform dense grid.  (At the alpha wall — U(12, 5) — the curve is a
/// cliff at zero: any omission breaks the permanent SHO bound termination
/// needs; alpha = 2 leaves slack, so the collapse sits mid-axis and the
/// driver has a real threshold to hunt.)
void refined_omission_threshold(Executor& executor) {
  banner("Adaptive refinement — where U_{T,E,alpha}'s termination "
         "collapses under omission",
         "src/refine on the Sec. 4.3 instantiation U(n=12, alpha=2)");

  SweepSpec sweep;
  sweep.base.algorithm = component("utea", {{"n", 12}, {"alpha", 2}});
  sweep.base.values = component("random", {{"distinct", 3}});
  sweep.base.adversaries = {component(
      "omit", {{"drop_probability", 0.0}, {"max_per_receiver", 12}})};
  sweep.base.campaign.runs = 40;
  sweep.base.campaign.rounds = 30;
  sweep.base.campaign.seed = 2424;
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
  CsvWriter csv("bench_resilience_utea_refined.csv",
                {"drop_probability", "generation", "terminated", "runs"});
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
            << "[csv] bench_resilience_utea_refined.csv written\n";
}

}  // namespace
}  // namespace hoval

int main() {
  hoval::bench::BenchRecorder recorder("resilience_utea");
  hoval::Executor executor = hoval::bench::make_bench_executor();
  hoval::run(executor);
  hoval::refined_omission_threshold(executor);
  return 0;
}
