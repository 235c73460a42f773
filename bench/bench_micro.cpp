/// Experiment P1 — microbenchmarks (google-benchmark): simulator round
/// throughput, adversary overhead, predicate evaluation, set algebra,
/// serialization/CRC and RNG costs.  These quantify the substrate so the
/// campaign sizes used by the table/figure harnesses are justified.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "adversary/corruption.hpp"
#include "adversary/wrappers.hpp"
#include "core/factories.hpp"
#include "dispatch/dispatch.hpp"
#include "predicates/liveness.hpp"
#include "predicates/safety.hpp"
#include "refine/driver.hpp"
#include "runtime/crc32.hpp"
#include "runtime/serialization.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "sim/executor.hpp"
#include "sim/initial_values.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hoval {
namespace {

/// The fixed campaign used for executor-throughput measurements: hostile
/// enough to be representative, horizon-bound so every run costs the same.
CampaignConfig throughput_config(int runs) {
  CampaignConfig config;
  config.runs = runs;
  config.sim.max_rounds = 30;
  config.sim.stop_when_all_decided = false;
  config.base_seed = 0xBE7C;
  return config;
}

CampaignResult run_throughput_campaign(int runs, Executor& executor) {
  const int n = 16;
  const int alpha = 3;
  RandomCorruptionConfig corruption;
  corruption.alpha = alpha;
  return executor
      .submit([n](Rng& rng) { return random_values(n, 3, rng); },
              [n, alpha](const std::vector<Value>& init) {
                return make_ate_instance(AteParams::canonical(n, alpha), init);
              },
              [corruption] {
                return std::make_shared<RandomCorruptionAdversary>(corruption);
              },
              throughput_config(runs))
      .take();
}

void BM_CampaignThroughput(benchmark::State& state) {
  Executor executor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto result = run_throughput_campaign(/*runs=*/64, executor);
    benchmark::DoNotOptimize(result.terminated);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_CampaignThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorRound_FaultFree(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim(make_ate_instance(AteParams::one_third_rule(n),
                                    distinct_values(n)),
                  std::make_shared<IdentityAdversary>(),
                  SimConfig{/*max_rounds=*/16, /*stop=*/false, /*seed=*/1});
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run().rounds_executed);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SimulatorRound_FaultFree)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_SimulatorRound_Corruption(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int alpha = n / 5;
  RandomCorruptionConfig config;
  config.alpha = alpha;
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim(make_ate_instance(AteParams::canonical(n, alpha),
                                    distinct_values(n)),
                  std::make_shared<RandomCorruptionAdversary>(config),
                  SimConfig{/*max_rounds=*/16, /*stop=*/false, /*seed=*/1});
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run().rounds_executed);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SimulatorRound_Corruption)->Arg(8)->Arg(32)->Arg(128);

void BM_SimulatorRound_UteaClamped(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int alpha = n / 5;
  const auto params = UteaParams::canonical(n, alpha);
  const PUSafe bound(n, params.threshold_t, params.threshold_e, alpha);
  RandomCorruptionConfig config;
  config.alpha = alpha;
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim(make_utea_instance(params, distinct_values(n)),
                  std::make_shared<SafetyClampAdversary>(
                      std::make_shared<RandomCorruptionAdversary>(config),
                      bound.bound(), alpha),
                  SimConfig{/*max_rounds=*/16, /*stop=*/false, /*seed=*/1});
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run().rounds_executed);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SimulatorRound_UteaClamped)->Arg(8)->Arg(32);

void BM_PredicateEvaluation(benchmark::State& state) {
  const int n = 32;
  Simulator sim(make_ate_instance(AteParams::canonical(n, 4), distinct_values(n)),
                std::make_shared<IdentityAdversary>(),
                SimConfig{/*max_rounds=*/64, /*stop=*/false, /*seed=*/1});
  const auto result = sim.run();
  const PALive alive(n, 21.0, 21.0, 4.0);
  const PAlpha palpha(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(palpha.evaluate(result.trace).holds);
    benchmark::DoNotOptimize(alive.evaluate(result.trace).holds);
  }
}
BENCHMARK(BM_PredicateEvaluation);

void BM_ProcessSetAlgebra(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  ProcessSet a(n);
  ProcessSet b(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (rng.chance(0.5)) a.insert(p);
    if (rng.chance(0.5)) b.insert(p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersect(b).count());
    benchmark::DoNotOptimize(a.unite(b).count());
    benchmark::DoNotOptimize(a.subtract(b).is_subset_of(a));
  }
}
BENCHMARK(BM_ProcessSetAlgebra)->Arg(16)->Arg(128)->Arg(1024);

void BM_SerializationRoundTrip(benchmark::State& state) {
  const bool with_crc = state.range(0) != 0;
  const WirePacket packet{7, 3, make_estimate(123456789)};
  for (auto _ : state) {
    const auto bytes = encode_packet(packet, with_crc);
    benchmark::DoNotOptimize(decode_packet(bytes, with_crc).status);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kFrameBodySize));
}
BENCHMARK(BM_SerializationRoundTrip)->Arg(0)->Arg(1);

void BM_Crc32Throughput(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::byte(i * 31);
  for (auto _ : state) benchmark::DoNotOptimize(crc32(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Throughput)->Arg(64)->Arg(4096);

void BM_RngNext(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngSample(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) benchmark::DoNotOptimize(rng.sample(64, 8).size());
}
BENCHMARK(BM_RngSample);

/// Times one campaign on `executor` and returns runs/sec.
double measured_runs_per_sec(int runs, Executor& executor, int* executed) {
  const auto start = std::chrono::steady_clock::now();
  const auto result = run_throughput_campaign(runs, executor);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  *executed = result.runs;
  return seconds > 0.0 ? result.runs / seconds : 0.0;
}

constexpr int kSweepPoints = 8;
constexpr int kSweepRunsPerPoint = 64;

/// The fixed 8-point sweep used for whole-sweep scheduling measurements:
/// the throughput workload with eight derived seeds, so every point costs
/// the same and the comparison isolates scheduling, not workload skew.
SweepSpec scheduling_sweep() {
  SweepSpec sweep;
  sweep.base.algorithm = component("ate", {{"n", 16}, {"alpha", 3}});
  sweep.base.adversaries = {component("corrupt", {{"alpha", 3}})};
  sweep.base.values = component("random", {{"distinct", 3}});
  sweep.base.campaign.runs = kSweepRunsPerPoint;
  sweep.base.campaign.rounds = 30;
  sweep.base.campaign.stop_when_all_decided = false;
  SweepAxis seeds;
  seeds.paths = {"campaign.seed"};
  for (int point = 0; point < kSweepPoints; ++point)
    seeds.points.push_back(
        {Json(derived_seed(0xBE7C, static_cast<std::uint64_t>(point)))});
  sweep.axes.push_back(std::move(seeds));
  return sweep;
}

/// Times the sweep on one shared pool, sequentially or with every point
/// submitted up front.  Results are bit-identical either way (executor
/// determinism holds under any interleaving); only wall time differs.
double measured_sweep_seconds(bool overlap_points) {
  Executor executor(0);
  SweepOptions options;
  options.overlap_points = overlap_points;
  const auto start = std::chrono::steady_clock::now();
  const auto results = run_sweep(scheduling_sweep(), executor, options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  benchmark::DoNotOptimize(results.size());
  return seconds;
}

/// Times the same 8-point sweep sharded over worker *processes* (forked
/// in-process workers, one executor thread each — the hoval_dispatch
/// default).  The merged results are bit-identical to run_sweep, so this
/// isolates the cost/benefit of crossing a process boundary: fork + one
/// spec/result JSON round trip per point against true multi-core
/// parallelism without shared-pool contention.
double measured_dispatch_seconds(int workers) {
  dispatch::DispatchOptions options;
  options.workers = workers;
  options.worker_threads = 1;
  const auto start = std::chrono::steady_clock::now();
  const auto report = dispatch::dispatch_sweep(scheduling_sweep(), options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  benchmark::DoNotOptimize(report.results.size());
  return seconds;
}

/// The adaptive-refinement workload: termination as a function of the
/// campaign.rounds horizon is an exact 0/1 step (a phase-based algorithm
/// on unanimous values under faithful communication decides at one fixed
/// round), so the refined sweep's point set — and with it the savings
/// percentage — is a pure function of the spec, deterministic across
/// hosts and pool sizes.
SweepSpec refinement_sweep() {
  SweepSpec sweep;
  sweep.base.algorithm = component("utea", {{"n", 6}, {"alpha", 1}});
  sweep.base.values = component("unanimous", {{"value", 1}});
  sweep.base.campaign.runs = 40;
  sweep.base.campaign.rounds = 1;
  sweep.base.campaign.seed = 1234;
  sweep.axes.push_back(
      SweepAxis::single("campaign.rounds", {Json(1), Json(16)}));
  sweep.refine.enabled = true;
  sweep.refine.max_depth = 4;
  sweep.refine.max_points = 64;
  sweep.refine.monitor.kind = MonitorSelector::Kind::kTermination;
  return sweep;
}

/// Times the refined step sweep on a fresh pool; the returned document's
/// runs_saved_pct() feeds BENCH_micro.json (CI floors it above zero).
RefinedSweepResult measured_refined_sweep(double* seconds) {
  Executor executor(0);
  const auto start = std::chrono::steady_clock::now();
  RefinedSweepResult refined = run_refined_sweep(refinement_sweep(), &executor);
  *seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return refined;
}

}  // namespace

/// Seeds the perf trajectory: serial vs 8-thread campaign throughput on
/// the fixed workload above, written as BENCH_micro.json for CI artifacts.
///
/// On a single-hardware-thread host (CI containers are often pinned to
/// one core) an 8-worker pool just adds scheduling overhead, so the
/// "speedup" it measures is noise that reads like a regression.  The JSON
/// marks the comparison invalid and skips both the threaded measurement
/// and the speedup field in that case instead of publishing the noise.
void write_campaign_throughput_json() {
  const int runs = 512;
  const unsigned hardware = std::thread::hardware_concurrency();
  const bool threaded_comparison_valid = hardware >= 2;
  int executed = 0;
  Executor serial_executor(1);
  const double serial = measured_runs_per_sec(runs, serial_executor, &executed);

  // Whole-sweep scheduling on the persistent Executor: the same 8-point
  // sweep run point-after-point versus submitted all at once on one pool.
  // Overlap can only reuse otherwise-idle workers (the per-point results
  // are bit-identical), so parallel whole-sweep execution should never be
  // meaningfully slower than sequential — CI asserts exactly that from
  // these fields.
  const double sweep_sequential = measured_sweep_seconds(false);
  const double sweep_parallel = measured_sweep_seconds(true);
  const double sweep_speedup =
      sweep_parallel > 0.0 ? sweep_sequential / sweep_parallel : 0.0;

  // Cross-process sharding of the same sweep: one worker process versus a
  // small fleet.  On a single-core host the fleet only adds fork and wire
  // overhead, so (like the thread comparison) the speedup is published for
  // trend-watching, not gated against a floor.
  const int dispatch_workers = 4;
  const double dispatch_single = measured_dispatch_seconds(1);
  const double dispatch_fleet = measured_dispatch_seconds(dispatch_workers);
  const double dispatch_speedup =
      dispatch_fleet > 0.0 ? dispatch_single / dispatch_fleet : 0.0;

  // Adaptive refinement on a deterministic step workload: the savings
  // against the dense grid at the same resolution are a pure function of
  // the spec, so CI can floor them without tolerating runner noise.
  double refine_seconds = 0.0;
  const RefinedSweepResult refined = measured_refined_sweep(&refine_seconds);

  std::ofstream out("BENCH_micro.json");
  out << "{\n"
      << "  \"bench\": \"micro\",\n"
      << "  \"campaign_runs\": " << executed << ",\n"
      << "  \"serial_runs_per_sec\": " << serial << ",\n"
      << "  \"sweep_points\": " << kSweepPoints << ",\n"
      << "  \"sweep_runs_per_point\": " << kSweepRunsPerPoint << ",\n"
      << "  \"sweep_sequential_seconds\": " << sweep_sequential << ",\n"
      << "  \"sweep_parallel_seconds\": " << sweep_parallel << ",\n"
      << "  \"sweep_parallel_speedup\": " << sweep_speedup << ",\n"
      << "  \"dispatch_workers\": " << dispatch_workers << ",\n"
      << "  \"dispatch_1_worker_seconds\": " << dispatch_single << ",\n"
      << "  \"dispatch_n_workers_seconds\": " << dispatch_fleet << ",\n"
      << "  \"dispatch_workers_speedup\": " << dispatch_speedup << ",\n"
      << "  \"refine_points\": " << refined.points.size() << ",\n"
      << "  \"refine_generations\": " << refined.generations << ",\n"
      << "  \"refine_runs_executed\": " << refined.runs_executed << ",\n"
      << "  \"refine_dense_runs_estimate\": " << refined.dense_runs_estimate
      << ",\n"
      << "  \"refine_runs_saved_pct\": " << refined.runs_saved_pct() << ",\n"
      << "  \"refine_wall_seconds\": " << refine_seconds << ",\n"
      << "  \"threaded_comparison_valid\": "
      << (threaded_comparison_valid ? "true" : "false") << ",\n";
  if (threaded_comparison_valid) {
    Executor threaded_executor(8);
    const double threaded =
        measured_runs_per_sec(runs, threaded_executor, &executed);
    const double speedup = serial > 0.0 ? threaded / serial : 0.0;
    out << "  \"threads\": 8,\n"
        << "  \"threaded_runs_per_sec\": " << threaded << ",\n"
        << "  \"campaign_speedup_8_threads\": " << speedup << ",\n";
  }
  out << "  \"hardware_concurrency\": " << hardware << "\n"
      << "}\n";
}

}  // namespace hoval

int main(int argc, char** argv) {
  // The throughput JSON costs two extra 512-run campaigns; skip it when
  // only listing benchmarks or when explicitly disabled.
  bool write_json = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--benchmark_list_tests" ||
        (arg.rfind("--benchmark_list_tests=", 0) == 0 &&
         arg != "--benchmark_list_tests=false"))
      write_json = false;
  }
  if (const char* env = std::getenv("HOVAL_MICRO_JSON"))
    if (std::string(env) == "0") write_json = false;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (write_json) hoval::write_campaign_throughput_json();
  return 0;
}
