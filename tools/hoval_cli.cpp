/// hoval_cli — command-line front end for single runs, quick campaigns and
/// declarative scenario files.
///
/// Every invocation builds a ScenarioSpec — either from a JSON document
/// (--scenario) or from the classic flags — and runs it through the same
/// registry-resolved path as the bench harnesses (scenario/run.hpp).
///
/// Usage:
///   hoval_cli --list
///   hoval_cli [flags] --dump-scenario > my.json
///   hoval_cli --scenario my.json [--runs K --seed S --threads W --rounds R]
///   hoval_cli --sweep sweep.json
///   hoval_cli --connect ADDR --scenario my.json [--out FILE]   (hovald client)
///   hoval_cli [--algorithm ate|utea|otr|uv|lastvoting|phaseking]
///             [--n N] [--alpha A] [--adversary none|corrupt|omit|block|byz|split]
///             [--good-rounds G] [--rounds R] [--runs K] [--seed S]
///             [--threads W] [--values unanimous|split|distinct|random]
///             [--progress] [--trace]
///
/// Examples:
///   hoval_cli --algorithm ate --n 12 --alpha 2 --adversary corrupt
///             --good-rounds 5 --runs 50     (single line in practice)
///   hoval_cli --algorithm utea --n 9 --alpha 4 --adversary byz --trace
///   hoval_cli --dump-scenario | tee s.json && hoval_cli --scenario s.json

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "hoval.hpp"

namespace {

using namespace hoval;

struct CliOptions {
  std::string scenario_file;
  std::string sweep_file;
  std::string out_file;
  std::string connect;  ///< hovald address; run server-side when set
  bool list = false;
  bool dump = false;
  int retries = 8;                  ///< --connect submit/reconnect attempts
  int connect_timeout_ms = 10'000;  ///< --connect dial + hello deadline

  std::string algorithm = "ate";
  int n = 9;
  int alpha = 1;
  std::string adversary = "corrupt";
  int good_rounds = 5;
  Round rounds = 50;
  int runs = 1;
  std::uint64_t seed = 1;
  int threads = 0;
  std::string values = "random";
  bool progress = false;
  bool sweep_parallel = false;
  bool refine = false;
  bool trace = false;
  bool adaptive = false;
  double ci_epsilon = 0.0;
  int batch_size = 0;
  TraceRetention keep_traces = TraceRetention::kNone;

  // Which campaign knobs were given explicitly (they override a loaded
  // --scenario document; the rest of the document wins otherwise).
  bool runs_set = false;
  bool seed_set = false;
  bool threads_set = false;
  bool rounds_set = false;
  bool ci_epsilon_set = false;
  bool batch_size_set = false;
  bool keep_traces_set = false;
  // Spec-shaping flags given explicitly (--algorithm, --n, ...).  These
  // cannot override a loaded document — combining them with --scenario or
  // --sweep is an error, not a silent ignore.
  std::vector<std::string> shape_flags;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --list           print the registered algorithms/adversaries/\n"
      << "                   value-gens/predicates and exit\n"
      << "  --scenario FILE  run a scenario JSON document\n"
      << "  --sweep FILE     run a sweep JSON document (one campaign per point)\n"
      << "  --refine         with --sweep: adaptively refine the grid where\n"
      << "                   adjacent points' Wilson intervals disagree\n"
      << "                   (equivalent to \"refine\": {\"enabled\": true} in\n"
      << "                   the document; see README \"Adaptive refinement\")\n"
      << "  --out FILE       with --scenario/--sweep: write the result\n"
      << "                   document(s) as JSON (deterministic;\n"
      << "                   byte-comparable across local, --connect and\n"
      << "                   hoval_dispatch --out runs)\n"
      << "  --connect ADDR   submit the scenario/sweep to a hovald daemon\n"
      << "                   (unix socket path or HOST:PORT) instead of\n"
      << "                   running locally; prints the cache_hit status\n"
      << "  --retries K      with --connect: total attempts per operation\n"
      << "                   (connect, submit); 1 = no retry (default 8)\n"
      << "  --connect-timeout MS  with --connect: dial + hello deadline,\n"
      << "                   0 = block forever (default 10000)\n"
      << "  --dump-scenario  print the scenario the flags describe as JSON\n"
      << "  --algorithm ate|utea|otr|uv|lastvoting|phaseking   (default ate)\n"
      << "  --n N            processes                        (default 9)\n"
      << "  --alpha A        corruption budget / fault degree (default 1)\n"
      << "  --adversary none|corrupt|omit|block|byz|split     (default corrupt)\n"
      << "  --good-rounds G  P^{A,live}/P^{U,live} period, 0=off (default 5)\n"
      << "  --rounds R       horizon                          (default 50)\n"
      << "  --runs K         Monte-Carlo campaign size        (default 1)\n"
      << "  --seed S         base seed                        (default 1)\n"
      << "  --threads W      local worker pool size, 0=all cores (default:\n"
      << "                   the document's campaign.threads, else 0)\n"
      << "  --batch-size B   runs claimed per pool task, 0=auto (default 0)\n"
      << "  --keep-traces P  retain run traces: none|violations|all\n"
      << "                   (default none)\n"
      << "  --adaptive       stop when all Wilson intervals converge\n"
      << "  --ci-epsilon E   target CI half-width, implies --adaptive\n"
      << "                   (default 0.02)\n"
      << "  --values unanimous|split|distinct|random          (default random)\n"
      << "  --progress       report campaign progress on stderr\n"
      << "  --sweep-parallel overlap sweep points on one worker pool\n"
      << "                   (results identical to sequential; see README)\n"
      << "  --trace          print the per-round trace summary (single run)\n";
  std::exit(2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenario") options.scenario_file = next();
    else if (arg == "--sweep") options.sweep_file = next();
    else if (arg == "--out") options.out_file = next();
    else if (arg == "--connect") options.connect = next();
    else if (arg == "--retries") options.retries = std::stoi(next());
    else if (arg == "--connect-timeout") options.connect_timeout_ms = std::stoi(next());
    else if (arg == "--list") options.list = true;
    else if (arg == "--dump-scenario") options.dump = true;
    else if (arg == "--algorithm") { options.algorithm = next(); options.shape_flags.push_back(arg); }
    else if (arg == "--n") { options.n = std::stoi(next()); options.shape_flags.push_back(arg); }
    else if (arg == "--alpha") { options.alpha = std::stoi(next()); options.shape_flags.push_back(arg); }
    else if (arg == "--adversary") { options.adversary = next(); options.shape_flags.push_back(arg); }
    else if (arg == "--good-rounds") { options.good_rounds = std::stoi(next()); options.shape_flags.push_back(arg); }
    else if (arg == "--rounds") { options.rounds = std::stoi(next()); options.rounds_set = true; }
    else if (arg == "--runs") { options.runs = std::stoi(next()); options.runs_set = true; }
    else if (arg == "--seed") { options.seed = std::stoull(next()); options.seed_set = true; }
    else if (arg == "--threads") { options.threads = std::stoi(next()); options.threads_set = true; }
    else if (arg == "--batch-size") { options.batch_size = std::stoi(next()); options.batch_size_set = true; }
    else if (arg == "--keep-traces") {
      options.keep_traces =
          parse_trace_retention_or_throw(next(), "--keep-traces");
      options.keep_traces_set = true;
    }
    else if (arg == "--adaptive") options.adaptive = true;
    else if (arg == "--ci-epsilon") { options.ci_epsilon = std::stod(next()); options.ci_epsilon_set = true; options.adaptive = true; }
    else if (arg == "--values") { options.values = next(); options.shape_flags.push_back(arg); }
    else if (arg == "--progress") options.progress = true;
    else if (arg == "--sweep-parallel") options.sweep_parallel = true;
    else if (arg == "--refine") options.refine = true;
    else if (arg == "--trace") options.trace = true;
    else usage(argv[0]);
  }
  return options;
}

/// Translates the classic flags into a scenario document — the flags are
/// just a spec builder now.
ScenarioSpec spec_from_flags(const CliOptions& options) {
  ScenarioSpec spec;

  Json::Object algorithm_params{{"n", options.n}};
  // Only the threshold algorithms take a fault degree; the benign
  // baselines (otr, uv, lastvoting) would reject the parameter.
  if (options.algorithm == "ate" || options.algorithm == "utea" ||
      options.algorithm == "phaseking")
    algorithm_params.emplace_back("alpha", options.alpha);
  spec.algorithm = component(options.algorithm, std::move(algorithm_params));

  if (options.adversary == "none") {
    // empty stack = faithful communication
  } else if (options.adversary == "corrupt") {
    spec.adversaries.push_back(
        component("corrupt", {{"alpha", options.alpha}}));
  } else if (options.adversary == "omit") {
    spec.adversaries.push_back(
        component("omit", {{"drop_probability", 0.2},
                           {"max_per_receiver", options.alpha}}));
  } else if (options.adversary == "byz") {
    spec.adversaries.push_back(component("byz", {{"f", options.alpha}}));
  } else if (options.adversary == "split") {
    spec.adversaries.push_back(component("split", {{"alpha", options.alpha}}));
  } else {
    // Everything else ("block", typos, future names) passes through to the
    // registry, which accepts it or fails with a "did you mean" hint.
    spec.adversaries.push_back(component(options.adversary));
  }
  if (options.good_rounds > 0 && !spec.adversaries.empty()) {
    // The two-round algorithms need whole clean phases, not single rounds.
    const bool phase_based =
        options.algorithm == "utea" || options.algorithm == "uv";
    spec.adversaries.push_back(
        component(phase_based ? "clean-phases" : "good-rounds",
                  {{"period", options.good_rounds}}));
  }

  if (options.values == "unanimous")
    spec.values = component("unanimous", {{"value", 1}});
  else if (options.values == "split")
    spec.values = component("split", {{"lo", 0}, {"hi", 1}});
  else if (options.values == "random")
    spec.values = component("random", {{"distinct", 3}});
  else
    spec.values = component(options.values);

  spec.campaign.runs = options.runs;
  spec.campaign.rounds = options.rounds;
  spec.campaign.seed = options.seed;
  spec.campaign.threads = options.threads;
  spec.campaign.batch_size = options.batch_size;
  spec.campaign.keep_traces = options.keep_traces;
  spec.campaign.adaptive.enabled = options.adaptive;
  if (options.ci_epsilon_set)
    spec.campaign.adaptive.ci_epsilon = options.ci_epsilon;
  return spec;
}

std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (!in)
    throw ScenarioError(std::string("cannot read ") + what + " file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Explicit campaign-knob flags override a loaded document's knobs; the
/// rest of the document wins.
void apply_overrides(const CliOptions& options, CampaignKnobs& knobs) {
  if (options.runs_set) knobs.runs = options.runs;
  if (options.seed_set) knobs.seed = options.seed;
  if (options.threads_set) knobs.threads = options.threads;
  if (options.rounds_set) knobs.rounds = options.rounds;
  if (options.batch_size_set) knobs.batch_size = options.batch_size;
  if (options.keep_traces_set) knobs.keep_traces = options.keep_traces;
  if (options.adaptive) knobs.adaptive.enabled = true;
  if (options.ci_epsilon_set) knobs.adaptive.ci_epsilon = options.ci_epsilon;
}

ScenarioSpec load_scenario(const CliOptions& options) {
  ScenarioSpec spec = ScenarioSpec::from_json_text(
      read_file(options.scenario_file, "scenario"));
  apply_overrides(options, spec.campaign);
  return spec;
}

/// The size of the invocation's one pool: --threads, or else the
/// document's campaign.threads.  Checked here because a sweep's pool is
/// built before run_sweep validates its points.
int pool_threads(const CampaignKnobs& knobs) {
  if (knobs.threads < 0)
    throw ScenarioError("campaign.threads must be >= 0 (0 = all cores)");
  return knobs.threads;
}

SweepSpec load_sweep(const CliOptions& options) {
  SweepSpec sweep =
      SweepSpec::from_json_text(read_file(options.sweep_file, "sweep"));
  apply_overrides(options, sweep.base.campaign);
  if (options.refine) sweep.refine.enabled = true;
  return sweep;
}

/// The old CLI warned when the flags described a parameter choice outside
/// the paper's theorems; the registries resolve thresholds now, so the
/// check runs on the resolved context (covers --scenario documents too).
void warn_if_infeasible(const ScenarioSpec& spec, const ResolveContext& ctx) {
  if (spec.algorithm.name == "ate") {
    const AteParams params{ctx.n, ctx.threshold_t, ctx.threshold_e, ctx.alpha};
    if (!params.theorem1_conditions())
      std::cerr << "warning: " << params.to_string()
                << " violates Theorem 1 (alpha >= n/4?) — running anyway\n";
  } else if (spec.algorithm.name == "utea") {
    const UteaParams params{ctx.n, ctx.threshold_t, ctx.threshold_e,
                            static_cast<int>(ctx.alpha), 0};
    if (!params.theorem2_conditions())
      std::cerr << "warning: " << params.to_string()
                << " violates Theorem 2 (alpha >= n/2?) — running anyway\n";
  }
}

template <typename Registry>
void print_catalogue(const std::string& title, const Registry& registry) {
  std::cout << title << ":\n";
  std::size_t width = 0;
  for (const auto& entry : registry.entries())
    width = std::max(width, entry.name.size());
  for (const auto& entry : registry.entries())
    std::cout << "  " << entry.name
              << std::string(width - entry.name.size() + 2, ' ')
              << entry.summary << "\n";
}

int list_registries() {
  print_catalogue("algorithms", AlgorithmRegistry::instance());
  std::cout << "\n";
  print_catalogue("adversaries (stackable, inner-first)",
                  AdversaryRegistry::instance());
  std::cout << "\n";
  print_catalogue("value generators", ValueGenRegistry::instance());
  std::cout << "\n";
  print_catalogue("predicates", PredicateRegistry::instance());
  return 0;
}

int run_single(const ResolvedScenario& resolved, bool trace) {
  Rng value_rng(resolved.config.base_seed);
  const auto initial = resolved.values(value_rng);
  SimConfig config = resolved.config.sim;
  config.seed = resolved.config.base_seed;

  Simulator sim(resolved.instance(initial), resolved.adversary(), config);
  const RunResult result = sim.run();
  const ConsensusReport report = check_consensus(initial, result);

  std::cout << "rounds executed: " << result.rounds_executed << "\n";
  for (ProcessId p = 0; p < result.n; ++p)
    std::cout << "  p" << p << ": proposed " << initial[p] << " -> "
              << (result.decisions[p]
                      ? "decided " + std::to_string(*result.decisions[p]) +
                            " @r" + std::to_string(*result.decision_rounds[p])
                      : std::string("undecided"))
              << "\n";
  std::cout << report.summary() << "\n";
  for (const auto& predicate : resolved.config.predicates) {
    const PredicateVerdict verdict = predicate->evaluate(result.trace);
    std::cout << "predicate " << predicate->name() << ": "
              << (verdict.holds ? "holds" : "fails") << "\n";
  }
  if (trace) std::cout << "\n" << render_summary(result.trace);
  return report.safety_holds() ? 0 : 1;
}

void write_json_file(const std::string& path, const Json& document) {
  std::ofstream out(path);
  if (!out) throw ScenarioError("cannot write results file " + path);
  // dump(2) + "\n" is the one canonical pretty form every --out producer
  // emits, which is what makes the files byte-comparable (cmp, not diff).
  out << document.dump(2) << "\n";
}

int run_many(ResolvedScenario resolved, bool progress,
             const std::string& out_file, Executor& executor) {
  if (progress) {
    resolved.config.progress_batch = std::max(1, resolved.config.runs / 20);
    resolved.config.progress = [](const CampaignProgress& state) {
      std::cerr << "\r" << state.completed << "/" << state.total << " runs"
                << std::flush;
      if (state.completed == state.total) std::cerr << "\n";
      return true;
    };
  }
  const TraceRetention keep_traces = resolved.config.keep_traces;
  const CampaignResult result =
      executor
          .submit(std::move(resolved.values), std::move(resolved.instance),
                  std::move(resolved.adversary), std::move(resolved.config))
          .take();
  std::cout << result.summary() << " [" << executor.threads() << " thread"
            << (executor.threads() == 1 ? "" : "s") << "]\n";
  if (keep_traces != TraceRetention::kNone)
    std::cout << "retained " << result.traces.size() << " trace(s) ("
              << to_string(keep_traces) << ")\n";
  for (const auto& violation : result.violations)
    std::cout << "  " << violation << "\n";
  if (!out_file.empty())
    write_json_file(out_file, campaign_result_to_json(result));
  return result.safety_clean() ? 0 : 1;
}

bool render_refined(const SweepSpec& sweep, const RefinedSweepResult& refined);

/// --connect mode: ship the document to a hovald daemon and render the
/// returned canonical result the way the local paths would.  The served
/// bytes are identical to a local run of the same document (determinism),
/// so --out files from either path cmp equal.
int run_connected(const CliOptions& options) {
  // Capped exponential backoff with deterministic jitter; each retry is a
  // stderr line so chaos CI can grep for "service: retrying" and operators
  // can see the client riding out a flaky daemon.  Retrying is safe: the
  // daemon's spec-hash cache makes resubmission idempotent.
  service::RetryPolicy policy;
  policy.max_attempts = std::max(1, options.retries);
  policy.connect_timeout_ms = options.connect_timeout_ms;
  policy.hello_timeout_ms = options.connect_timeout_ms;
  policy.on_retry = [](int attempt, int max_attempts, int delay_ms,
                       const std::string& reason) {
    std::cerr << "service: retrying (attempt " << attempt << "/" << max_attempts
              << ") in " << delay_ms << "ms: " << reason << "\n";
  };
  service::ServiceClient client(options.connect, policy);
  service::ClientProgressFn progress_fn;
  if (options.progress)
    progress_fn = [](long long completed, long long total) {
      std::cerr << "\r" << completed << "/" << total << " runs" << std::flush;
      if (completed >= total) std::cerr << "\n";
    };

  if (!options.sweep_file.empty()) {
    const SweepSpec sweep = load_sweep(options);
    const service::JobOutcome outcome =
        client.submit_sweep(sweep.to_json(), progress_fn);
    if (!outcome.ok) {
      std::cerr << "error: service: " << outcome.error << "\n";
      return 2;
    }
    std::cout << "service: cache_hit="
              << (outcome.cache_hit ? "true" : "false") << "\n";
    if (sweep.refine.enabled) {
      // The daemon serves the refined document the local path would have
      // produced (coordinate-derived seeds make the two byte-identical).
      const RefinedSweepResult refined =
          RefinedSweepResult::from_json(outcome.result);
      const bool all_clean = render_refined(sweep, refined);
      if (!options.out_file.empty())
        write_json_file(options.out_file, outcome.result);
      return all_clean ? 0 : 1;
    }
    const std::vector<CampaignResult> results =
        campaign_results_from_json(outcome.result);
    bool all_clean = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::cout << "[" << i + 1 << "/" << results.size() << "] "
                << results[i].summary() << "\n";
      for (const auto& violation : results[i].violations)
        std::cout << "  " << violation << "\n";
      all_clean = all_clean && results[i].safety_clean();
    }
    if (!options.out_file.empty())
      write_json_file(options.out_file, outcome.result);
    return all_clean ? 0 : 1;
  }

  const ScenarioSpec spec = load_scenario(options);
  const service::JobOutcome outcome =
      client.submit_scenario(spec.to_json(), progress_fn);
  if (!outcome.ok) {
    std::cerr << "error: service: " << outcome.error << "\n";
    return 2;
  }
  std::cout << "service: cache_hit=" << (outcome.cache_hit ? "true" : "false")
            << "\n";
  const CampaignResult result = campaign_result_from_json(outcome.result);
  std::cout << result.summary() << "\n";
  for (const auto& violation : result.violations)
    std::cout << "  " << violation << "\n";
  if (!options.out_file.empty())
    write_json_file(options.out_file, outcome.result);
  return result.safety_clean() ? 0 : 1;
}

/// Renders a refined sweep's per-point lines and the savings summary the
/// way run_sweep_file renders a fixed grid.  Returns all-points-clean.
bool render_refined(const SweepSpec& sweep, const RefinedSweepResult& refined) {
  bool all_clean = true;
  for (std::size_t i = 0; i < refined.points.size(); ++i) {
    const RefinedPoint& point = refined.points[i];
    std::cout << "[" << i + 1 << "/" << refined.points.size() << "]";
    // validate_refine() restricts refined sweeps to single-path axes, so
    // each axis has exactly one label.
    for (std::size_t a = 0;
         a < sweep.axes.size() && a < point.coordinates.size(); ++a)
      std::cout << " " << sweep.axes[a].paths.front() << "="
                << point.coordinates[a].dump();
    std::cout << " (g" << point.generation << "): " << point.result.summary()
              << "\n";
    for (const auto& violation : point.result.violations)
      std::cout << "  " << violation << "\n";
    all_clean = all_clean && point.result.safety_clean();
  }
  std::cout << "refined " << refined.points.size() << " points in "
            << refined.generations << " generation"
            << (refined.generations == 1 ? "" : "s") << ": "
            << refined.runs_executed << " runs executed vs "
            << refined.dense_runs_estimate << " dense-grid runs ("
            << refined.dense_points << " points), saved "
            << refined.runs_saved() << " runs ("
            << format_double(refined.runs_saved_pct(), 1) << "%)\n";
  if (refined.budget_exhausted)
    std::cout << "refine budget exhausted: refine.max_points reached before "
                 "the resolution floor\n";
  return all_clean;
}

int run_refined_file(const SweepSpec& sweep, const CliOptions& options,
                     Executor& executor) {
  RefineDriverOptions hooks;
  if (options.progress)
    hooks.on_generation = [](int generation, std::size_t added,
                             std::size_t total) {
      std::cerr << "generation " << generation << ": +" << added
                << " point(s), " << total << " total\n";
    };
  const auto start = std::chrono::steady_clock::now();
  const RefinedSweepResult refined =
      run_refined_sweep(sweep, &executor, std::move(hooks));
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const bool all_clean = render_refined(sweep, refined);
  std::cout << "refine wall time: " << format_double(seconds, 2) << "s\n";
  if (!options.out_file.empty())
    // Deterministic document: byte-comparable against a --connect --out of
    // the same sweep (the daemon serves the identical canonical JSON).
    write_json_file(options.out_file, refined.to_json());
  return all_clean ? 0 : 1;
}

int run_sweep_file(const SweepSpec& sweep, const CliOptions& options,
                   Executor& executor) {
  SweepOptions execution;
  // Sequential is the default so per-point progress reads top to bottom;
  // --sweep-parallel overlaps points on the shared pool.  Every point's
  // result is bit-identical either way.
  execution.overlap_points = options.sweep_parallel;
  if (options.progress) {
    execution.progress = [](const SweepProgress& state) {
      // Overlapping points report concurrently; one preformatted write per
      // update keeps the lines from interleaving mid-field.
      std::ostringstream line;
      line << "\rpoint " << state.point + 1 << "/" << state.points << ": "
           << state.completed << "/" << state.total << " runs";
      if (state.completed == state.total) line << "\n";
      std::cerr << line.str() << std::flush;
      return true;
    };
  }
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = run_sweep(sweep, executor, execution);
  const double sweep_seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   sweep_start)
                                   .count();
  bool all_clean = true;
  long long executed = 0;
  long long requested = 0;
  bool any_adaptive = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::vector<std::size_t> coordinate = sweep.point_coordinates(i);
    std::cout << "[" << i + 1 << "/" << results.size() << "]";
    for (std::size_t a = 0; a < sweep.axes.size(); ++a)
      for (std::size_t j = 0; j < sweep.axes[a].paths.size(); ++j)
        std::cout << " " << sweep.axes[a].paths[j] << "="
                  << sweep.axes[a].points[coordinate[a]][j].dump();
    std::cout << ": " << results[i].summary() << "\n";
    // An unsafe point must be diagnosable from the sweep output alone, the
    // way run_many prints them for a single campaign — the exit code says
    // *that* something violated, these lines say *what*.
    for (const auto& violation : results[i].violations)
      std::cout << "  " << violation << "\n";
    all_clean = all_clean && results[i].safety_clean();
    executed += results[i].runs;
    requested += results[i].runs_requested;
    any_adaptive = any_adaptive || results[i].ci_confidence > 0.0;
  }
  if (any_adaptive && requested > 0) {
    const double saved =
        100.0 * static_cast<double>(requested - executed) / requested;
    std::cout << "adaptive sweep total: " << executed << "/" << requested
              << " runs executed (saved " << format_double(saved, 1)
              << "%)\n";
  }
  // Aggregate wall time + throughput makes sequential-vs-parallel sweep
  // speedups visible without digging through BENCH JSON.
  const double runs_per_sec =
      sweep_seconds > 0.0 ? static_cast<double>(executed) / sweep_seconds : 0.0;
  std::cout << "sweep wall time: " << format_double(sweep_seconds, 2) << "s, "
            << executed << " runs (" << format_double(runs_per_sec, 0)
            << " runs/sec, "
            << (options.sweep_parallel ? "parallel points" : "sequential points")
            << ")\n";
  if (!options.out_file.empty())
    // The documents are fully deterministic (no timings), so this file is
    // byte-comparable against hoval_dispatch --out of the same sweep.
    write_json_file(options.out_file, campaign_results_to_json(results));
  return all_clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Chaos hook: HOVAL_FAULT_PLAN=SEED[:key=rate,...] arms deterministic
    // syscall-level fault injection on every stream this process touches
    // (see util/faults.hpp and README "Chaos testing").  A bad plan is a
    // usage error, not a crash.
    try {
      if (faults::FaultInjector* injector = faults::install_fault_plan_from_env())
        std::cerr << "chaos: fault plan active: "
                  << injector->plan().to_string() << "\n";
    } catch (const faults::FaultError& e) {
      std::cerr << "error: HOVAL_FAULT_PLAN: " << e.what() << "\n";
      return 2;
    }
    const CliOptions options = parse(argc, argv);
    if (options.list) return list_registries();
    if (!options.sweep_file.empty() && !options.scenario_file.empty()) {
      std::cerr << "error: --scenario and --sweep are mutually exclusive\n";
      return 2;
    }
    if (!options.out_file.empty() && options.sweep_file.empty() &&
        options.scenario_file.empty()) {
      std::cerr << "error: --out applies to --scenario/--sweep only\n";
      return 2;
    }
    if (options.refine && options.sweep_file.empty()) {
      std::cerr << "error: --refine applies to --sweep only\n";
      return 2;
    }
    if (!options.connect.empty()) {
      if (options.scenario_file.empty() && options.sweep_file.empty()) {
        std::cerr << "error: --connect requires --scenario or --sweep\n";
        return 2;
      }
      if (options.dump || options.trace) {
        std::cerr << "error: --dump-scenario/--trace do not apply to "
                     "--connect\n";
        return 2;
      }
      if (options.threads_set) {
        // The daemon's pool is fixed by `hovald --threads`; here the flag
        // would only change the spec bytes, and with them the cache key.
        std::cerr << "error: --threads does not apply to --connect (the "
                     "daemon's pool size is set by hovald --threads)\n";
        return 2;
      }
    }
    if ((!options.scenario_file.empty() || !options.sweep_file.empty()) &&
        !options.shape_flags.empty()) {
      // Only campaign knobs (--runs/--seed/--threads/--rounds) override a
      // document; shaping flags would be silently dead weight, so reject.
      std::cerr << "error:";
      for (const std::string& flag : options.shape_flags)
        std::cerr << " " << flag;
      std::cerr << " cannot override a scenario/sweep document — edit the "
                   "JSON (start from --dump-scenario) instead\n";
      return 2;
    }
    if (!options.connect.empty()) return run_connected(options);
    if (!options.sweep_file.empty()) {
      if (options.dump) {
        std::cerr << "error: --dump-scenario does not apply to --sweep "
                     "(the document is already on disk)\n";
        return 2;
      }
      if (options.trace) {
        std::cerr << "error: --trace is a single-run flag and does not "
                     "apply to --sweep\n";
        return 2;
      }
      const SweepSpec sweep = load_sweep(options);
      Executor executor(pool_threads(sweep.base.campaign));
      return sweep.refine.enabled
                 ? run_refined_file(sweep, options, executor)
                 : run_sweep_file(sweep, options, executor);
    }

    const ScenarioSpec spec = !options.scenario_file.empty()
                                  ? load_scenario(options)
                                  : spec_from_flags(options);
    // Resolving validates the whole document (names *and* params) up
    // front, so both --dump-scenario output and typo'd flags fail with a
    // precise message before anything runs.
    const ResolvedScenario resolved = resolve_scenario(spec);
    if (options.dump) {
      std::cout << spec.to_json_text() << "\n";
      return 0;
    }
    warn_if_infeasible(spec, resolved.context);
    // --out always takes the campaign path (even for runs == 1) so the
    // written document matches what hovald serves for the same spec.
    if (spec.campaign.runs <= 1 && options.out_file.empty())
      return run_single(resolved, options.trace);
    Executor executor(pool_threads(spec.campaign));
    return run_many(resolved, options.progress, options.out_file, executor);
  } catch (const ScenarioError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::invalid_argument&) {
    std::cerr << "error: malformed numeric option\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
