/// Experiment E6 — Sec. 5.2: classical Byzantine assumptions expressed as
/// communication predicates.  A static sender set B (|B| = f) corrupts all
/// its outgoing traffic; since processes have no state faults, members of
/// B still execute correctly and must decide.  We check that the traces
/// satisfy the paper's encodings —
///     synchronous:  |SK| >= n - f
///     asynchronous: ∀p,r |HO(p,r)| >= n - f  and  |AS| <= f
/// — for every corruption mode, and that U_{T,E,f} stays safe beneath them.

#include "bench/common.hpp"

#include "adversary/byzantine.hpp"

namespace hoval {
namespace {

using bench::banner;
using bench::ratio;
using bench::verdict;

void run() {
  banner("Classical Byzantine assumptions as predicates",
         "Biely et al., PODC'07, Sec. 5.2 (Fig. 3 discussion)");
  Executor executor = bench::make_bench_executor();

  const int n = 9;
  TablePrinter table({"mode", "f", "|SK| >= n-f", "|HO|>=n-f && |AS|<=f",
                      "P_alpha(f)", "P_perm(f)", "U safe", "all decide*"},
                     {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                      Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  CsvWriter csv("bench_byzantine_pred.csv",
                {"mode", "f", "sync_holds", "async_holds", "u_safe",
                 "terminated", "runs"});

  struct ModeRow {
    std::string name;
    ByzantineMode mode;
  };
  const std::vector<ModeRow> modes{
      {"equivocate", ByzantineMode::kEquivocate},
      {"identical (symmetric)", ByzantineMode::kIdentical},
      {"fixed poison", ByzantineMode::kFixedPoison},
      {"garbage", ByzantineMode::kGarbage},
      {"crash (benign)", ByzantineMode::kCrash},
  };

  for (const auto& mode : modes) {
    for (const int f : {1, 2, 3}) {
      const auto params = UteaParams::canonical(n, f);
      CampaignConfig config;
      config.runs = 60;
      config.sim.max_rounds = 60;
      config.base_seed = mix_seed(std::hash<std::string>{}(mode.name),
                                  static_cast<std::uint64_t>(f));
      config.predicates.push_back(std::make_shared<SyncByzantinePredicate>(f));
      config.predicates.push_back(std::make_shared<AsyncByzantinePredicate>(f));
      config.predicates.push_back(std::make_shared<PAlpha>(f));
      config.predicates.push_back(std::make_shared<PPermAlpha>(f));

      const auto result = bench::run_campaign_timed(
          bench::random_values_of(n), bench::utea_instance_builder(params),
          [&] {
            StaticByzantineConfig byz;
            byz.f = f;
            byz.mode = mode.mode;
            CleanPhaseConfig clean;
            clean.period_phases = 4;
            return std::make_shared<CleanPhaseScheduler>(
                std::make_shared<StaticByzantineAdversary>(byz), clean);
          },
          config, executor);

      table.add_row({mode.name, std::to_string(f),
                     ratio(result.predicate_holds[0], result.runs),
                     ratio(result.predicate_holds[1], result.runs),
                     ratio(result.predicate_holds[2], result.runs),
                     ratio(result.predicate_holds[3], result.runs),
                     verdict(result.safety_clean()),
                     ratio(result.terminated, result.runs)});
      csv.add_row({mode.name, std::to_string(f),
                   std::to_string(result.predicate_holds[0]),
                   std::to_string(result.predicate_holds[1]),
                   std::to_string(result.safety_clean()),
                   std::to_string(result.terminated),
                   std::to_string(result.runs)});
    }
  }
  table.print(std::cout);

  std::cout
      << "\n(*) termination is helped by P^{U,live} clean phases every 4\n"
         "phases — static equivocation alone can suppress votes forever.\n"
         "Reading: every static pattern satisfies both Sec. 5.2 encodings\n"
         "by construction (crash mode trivially satisfies the sync one for\n"
         "f counted in omissions only when links stay reliable otherwise),\n"
         "and *all n processes decide* — including the members of B, whose\n"
         "state is intact: 'Byzantine process' is a property of the\n"
         "communication pattern, not of the process, exactly the paper's\n"
         "point.\n"
         "[csv] bench_byzantine_pred.csv written\n";
}

}  // namespace
}  // namespace hoval

int main() {
  hoval::bench::BenchRecorder recorder("byzantine_pred");
  hoval::run();
  return 0;
}
