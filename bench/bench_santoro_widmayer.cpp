/// Experiment E3 — circumventing the Santoro–Widmayer lower bound
/// (Sec. 5.1).  Three parts:
///
/// (a) The literal SW fault pattern — floor(n/2) transmissions of one
///     (rotating) sender hit per round — is harmless: A_{T,E} stays safe
///     and decides fast, because per receiver the pattern alters at most
///     one message (P_alpha with alpha = 1).
///
/// (b) The *adaptive* SW-style adversary: with ~n/2 forgeries per round
///     (exactly the SW budget) it keeps A_{T,E} bivalent forever — no
///     contradiction with the paper, because liveness is a separate
///     predicate; safety is never violated, and the moment a P^{A,live}
///     round occurs the system decides.
///
/// (c) Counting transmission faults per round: our algorithms absorb up to
///     n*alpha corrupted transmissions per round — n^2/4-ish for A,
///     n^2/2-ish for U — vastly above the floor(n/2) at which SW prove
///     impossibility for their (single-predicate) setting.

#include "bench/common.hpp"

#include "adversary/bivalence.hpp"
#include "adversary/block_fault.hpp"

namespace hoval {
namespace {

using bench::banner;
using bench::latency_cell;
using bench::ratio;
using bench::verdict;

void part_a_literal_pattern(Executor& executor) {
  std::cout << "--- (a) literal SW block faults: floor(n/2) hits per round ---\n";
  TablePrinter table({"n", "mode", "faults/round", "agreement", "integrity",
                      "terminated", "decision round"},
                     {Align::kRight, Align::kLeft, Align::kRight, Align::kRight,
                      Align::kRight, Align::kRight, Align::kRight});
  for (const int n : {9, 16, 25}) {
    for (const auto mode : {BlockFaultMode::kCorrupt, BlockFaultMode::kOmit}) {
      const auto params = AteParams::canonical(n, 1);
      CampaignConfig config;
      config.runs = 100;
      config.sim.max_rounds = 40;
      config.base_seed = derived_seed(0x5A0, static_cast<std::uint64_t>(n));
      const auto result = bench::run_campaign_timed(
          bench::random_values_of(n), bench::ate_instance_builder(params),
          [mode] {
            BlockFaultConfig block;
            block.mode = mode;
            block.rotate = true;
            return std::make_shared<BlockFaultAdversary>(block);
          },
          config, executor);
      table.add_row({std::to_string(n),
                     mode == BlockFaultMode::kCorrupt ? "corrupt" : "omit",
                     std::to_string(n / 2),
                     verdict(result.agreement_violations == 0),
                     verdict(result.integrity_violations == 0),
                     ratio(result.terminated, result.runs),
                     latency_cell(result)});
    }
  }
  table.print(std::cout);
}

void part_b_adaptive_stall() {
  std::cout << "\n--- (b) adaptive SW-style adversary: stall vs unlock ---\n";
  const int n = 10;
  const int alpha = 2;
  const auto params = AteParams::canonical(n, alpha);

  // Stall: no good round ever.
  BivalenceConfig stall;
  stall.alpha = alpha;
  stall.threshold_e = params.threshold_e;
  auto stall_adversary = std::make_shared<BivalenceAdversary>(stall);
  SimConfig stall_config;
  stall_config.max_rounds = 500;
  Simulator stalled(make_ate_instance(params, split_values(n, 0, 1)),
                    stall_adversary, stall_config);
  const auto stalled_result = stalled.run();

  std::cout << "stall run: " << stalled_result.rounds_executed << " rounds, "
            << stalled_result.decided_count() << "/" << n << " decided, "
            << "agreement " << verdict(check_agreement(stalled_result).holds)
            << ", forgeries/round "
            << format_double(static_cast<double>(stall_adversary->forgeries()) /
                                 stalled_result.rounds_executed,
                             2)
            << " (SW budget floor(n/2) = " << n / 2 << ")\n";

  // Unlock: identical adversary + sporadic good rounds.
  for (const int gap : {25, 50, 100}) {
    GoodRoundConfig good;
    good.period = gap;
    SimConfig unlock_config;
    unlock_config.max_rounds = 4 * gap;
    Simulator unlocked(
        make_ate_instance(params, split_values(n, 0, 1)),
        std::make_shared<GoodRoundScheduler>(
            std::make_shared<BivalenceAdversary>(stall), good),
        unlock_config);
    const auto unlocked_result = unlocked.run();
    std::cout << "good round every " << gap << ": decided "
              << unlocked_result.decided_count() << "/" << n << " by round "
              << (unlocked_result.last_decision_round
                      ? std::to_string(*unlocked_result.last_decision_round)
                      : "-")
              << ", agreement "
              << verdict(check_agreement(unlocked_result).holds) << "\n";
  }
}

void part_c_fault_volume() {
  std::cout << "\n--- (c) corrupted transmissions absorbed per round ---\n";
  TablePrinter table({"algorithm", "n", "alpha", "faults/round (measured)",
                      "n^2 scale", "SW bound", "safe"},
                     {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                      Align::kLeft, Align::kRight, Align::kRight});
  CsvWriter csv("bench_santoro_widmayer.csv",
                {"algorithm", "n", "alpha", "mean_faults_per_round", "sw_bound",
                 "agreement_ok"});

  for (const int n : {12, 20, 32}) {
    // A at its wall.
    {
      const int alpha = AteParams::max_tolerated_alpha(n);
      const auto params = AteParams::canonical(n, alpha);
      SimConfig config;
      config.max_rounds = 30;
      config.stop_when_all_decided = false;
      RandomCorruptionConfig corruption;
      corruption.alpha = alpha;
      Simulator sim(make_ate_instance(params, split_values(n, 0, 1)),
                    std::make_shared<RandomCorruptionAdversary>(corruption),
                    config);
      const auto result = sim.run();
      RunningStats faults;
      for (Round r = 1; r <= result.trace.round_count(); ++r)
        faults.add(result.trace.alteration_count(r));
      const bool safe = check_agreement(result).holds;
      table.add_row({params.to_string(), std::to_string(n),
                     std::to_string(alpha), format_double(faults.mean(), 1),
                     "~n^2/4 = " + format_double(n * n / 4.0, 0),
                     std::to_string(n / 2), verdict(safe)});
      csv.add_row({"A", std::to_string(n), std::to_string(alpha),
                   format_double(faults.mean(), 2), std::to_string(n / 2),
                   std::to_string(safe)});
    }
    // U at its peak *sustained* corruption volume.  Note a subtlety the
    // harness surfaces: U's parameter wall is alpha < n/2, but the
    // permanent P^{U,safe} (|SHO| > n/2 + alpha with canonical T = E)
    // caps actual per-receiver corruption at min(alpha, n/2 - alpha),
    // which peaks at alpha ~ n/4.  The n^2/2 figure of Sec. 5.1 counts
    // what P_alpha alone would admit at alpha -> n/2.
    {
      const int alpha = n / 4;
      const auto params = UteaParams::canonical(n, alpha);
      SimConfig config;
      config.max_rounds = 30;
      config.stop_when_all_decided = false;
      Simulator sim(make_utea_instance(params, split_values(n, 0, 1)),
                    bench::usafe_builder(params)(), config);
      const auto result = sim.run();
      RunningStats faults;
      for (Round r = 1; r <= result.trace.round_count(); ++r)
        faults.add(result.trace.alteration_count(r));
      const bool safe = check_agreement(result).holds;
      table.add_row({params.to_string() + " (peak sustained)", std::to_string(n),
                     std::to_string(alpha), format_double(faults.mean(), 1),
                     "~n^2/4 = " + format_double(n * n / 4.0, 0),
                     std::to_string(n / 2), verdict(safe)});
      csv.add_row({"U_peak", std::to_string(n), std::to_string(alpha),
                   format_double(faults.mean(), 2), std::to_string(n / 2),
                   std::to_string(safe)});
    }
    // U at its parameter wall: P^{U,safe} then forces near-perfect rounds —
    // the alpha < n/2 advantage is about the assumption regime (and the
    // alpha+1 certification guard), not sustained fault volume.
    {
      const int alpha = UteaParams::max_tolerated_alpha(n);
      const auto params = UteaParams::canonical(n, alpha);
      SimConfig config;
      config.max_rounds = 30;
      config.stop_when_all_decided = false;
      Simulator sim(make_utea_instance(params, split_values(n, 0, 1)),
                    bench::usafe_builder(params)(), config);
      const auto result = sim.run();
      RunningStats faults;
      for (Round r = 1; r <= result.trace.round_count(); ++r)
        faults.add(result.trace.alteration_count(r));
      const bool safe = check_agreement(result).holds;
      table.add_row({params.to_string() + " (parameter wall)",
                     std::to_string(n), std::to_string(alpha),
                     format_double(faults.mean(), 1),
                     "P^{U,safe}-capped", std::to_string(n / 2), verdict(safe)});
      csv.add_row({"U_wall", std::to_string(n), std::to_string(alpha),
                   format_double(faults.mean(), 2), std::to_string(n / 2),
                   std::to_string(safe)});
    }
  }
  table.print(std::cout);
  std::cout << "[csv] bench_santoro_widmayer.csv written\n";
}

void run() {
  banner("Santoro–Widmayer circumvention",
         "Biely et al., PODC'07, Sec. 5.1 (vs. Santoro & Widmayer [18])");
  Executor executor = bench::make_bench_executor();
  part_a_literal_pattern(executor);
  part_b_adaptive_stall();
  part_c_fault_volume();
  std::cout
      << "\nReading: (a) the exact pattern behind the SW impossibility is\n"
         "absorbed without breaking a sweat; (b) an adaptive adversary with\n"
         "the same per-round budget does stall termination forever — the SW\n"
         "bound is real — but never safety, and sporadic P^{A,live} rounds\n"
         "restore termination: separating safety from liveness predicates\n"
         "is precisely what circumvents the bound; (c) measured corrupted\n"
         "transmissions per round scale with n^2 while SW's wall sits at\n"
         "floor(n/2).\n";
}

}  // namespace
}  // namespace hoval

int main() {
  hoval::bench::BenchRecorder recorder("santoro_widmayer");
  hoval::run();
  return 0;
}
