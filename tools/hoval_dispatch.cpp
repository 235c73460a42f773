/// hoval_dispatch — cross-process sweep sharding.
///
/// Expands a sweep document into its point list, spawns N backend
/// processes (each a hovald service::Server on one socket), submits one
/// point at a time to each over the hovald protocol and merges the
/// returned result documents in point order.  Per-point results are
/// bit-identical to `hoval_cli --sweep` of the same document at any
/// worker count — compare the two `--out` files with cmp(1).  Workers
/// that crash, get killed or time out have their in-flight point
/// resubmitted to a survivor; points that keep killing workers are
/// quarantined and reported (see dispatch/dispatch.hpp).
///
/// Usage:
///   hoval_dispatch --sweep sweep.json [--workers N] [--worker-threads T]
///                  [--out results.json] [--worker-cmd "prog args..."]
///                  [--max-attempts K] [--max-respawns R]
///                  [--timeout SECONDS] [--test-kill-worker K] [--quiet]
///
/// By default backends are forked from this process and build the Server
/// in-process — no binary paths to plumb.  --worker-cmd execs a backend
/// that serves the socket on fd 0 instead (e.g. --worker-cmd "./hovald
/// --stdio --threads 1"); it sets its own thread count, so
/// --worker-threads applies to forked backends only.
///
/// Exit status: 0 when every point completed and reported no safety
/// violations; 1 when any point violated safety or was quarantined; 2 on
/// usage or document errors.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hoval.hpp"

namespace {

using namespace hoval;

struct Options {
  std::string sweep_file;
  std::string out_file;
  int workers = 0;  // 0 = hardware concurrency
  std::optional<int> worker_threads;  ///< forked backends; default 1
  std::vector<std::string> worker_cmd;
  int max_attempts = 3;
  int max_respawns = 8;
  double timeout_seconds = 0.0;
  int test_kill_worker = -1;
  bool quiet = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --sweep FILE [options]\n"
      << "  --sweep FILE        sweep JSON document to shard\n"
      << "  --workers N         worker processes (default: all cores)\n"
      << "  --worker-threads T  executor threads per forked backend\n"
      << "                      (default 1; results are identical at any\n"
      << "                      value; not with --worker-cmd)\n"
      << "  --out FILE          write merged results as a JSON array,\n"
      << "                      byte-comparable with hoval_cli --sweep --out\n"
      << "  --worker-cmd CMD    exec CMD (whitespace-split) as the backend,\n"
      << "                      serving fd 0, e.g. \"hovald --stdio\n"
      << "                      --threads 1\"; default: forked backends.\n"
      << "                      Quotes and backslashes are refused: put a\n"
      << "                      shell command in a script file\n"
      << "  --max-attempts K    quarantine a point after K worker deaths\n"
      << "                      (default 3)\n"
      << "  --max-respawns R    replacement-worker budget (default 8)\n"
      << "  --timeout SECONDS   kill a worker stuck on one point this long\n"
      << "  --test-kill-worker K  SIGKILL worker slot K mid-sweep (CI uses\n"
      << "                      this to exercise resubmission)\n"
      << "  --quiet             suppress per-event progress on stderr\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--sweep") options.sweep_file = next();
    else if (arg == "--out") options.out_file = next();
    else if (arg == "--workers") options.workers = std::stoi(next());
    else if (arg == "--worker-threads") options.worker_threads = std::stoi(next());
    else if (arg == "--worker-cmd") {
      const std::string command = next();
      // Split on whitespace, never shell-parsed: a quoted command would
      // exec a broken argv (sh -c "'exec"), so refuse it outright.
      if (command.find_first_of("'\"\\") != std::string::npos) {
        std::cerr << "error: --worker-cmd is split on whitespace, not parsed "
                     "by a shell, so it cannot contain quotes or "
                     "backslashes; put the command in a script file and "
                     "pass \"/bin/sh FILE\"\n";
        std::exit(2);
      }
      std::istringstream words(command);
      std::string word;
      while (words >> word) options.worker_cmd.push_back(word);
    }
    else if (arg == "--max-attempts") options.max_attempts = std::stoi(next());
    else if (arg == "--max-respawns") options.max_respawns = std::stoi(next());
    else if (arg == "--timeout") options.timeout_seconds = std::stod(next());
    else if (arg == "--test-kill-worker") options.test_kill_worker = std::stoi(next());
    else if (arg == "--quiet") options.quiet = true;
    else usage(argv[0]);
  }
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ScenarioError("cannot read sweep file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Same per-point line format as `hoval_cli --sweep`, so the two outputs
/// read the same; quarantined points stand out instead of silently holding
/// an empty result.
void print_points(const SweepSpec& sweep, const dispatch::DispatchReport& report) {
  std::vector<const dispatch::PointFailure*> failure_of(
      static_cast<std::size_t>(report.points), nullptr);
  for (const auto& failure : report.quarantined)
    failure_of[static_cast<std::size_t>(failure.point)] = &failure;

  for (int i = 0; i < report.points; ++i) {
    const auto index = static_cast<std::size_t>(i);
    const std::vector<std::size_t> coordinate =
        sweep.point_coordinates(index);
    std::cout << "[" << i + 1 << "/" << report.points << "]";
    for (std::size_t a = 0; a < sweep.axes.size(); ++a)
      for (std::size_t j = 0; j < sweep.axes[a].paths.size(); ++j)
        std::cout << " " << sweep.axes[a].paths[j] << "="
                  << sweep.axes[a].points[coordinate[a]][j].dump();
    if (report.completed[index]) {
      std::cout << ": " << report.results[index].summary() << "\n";
      for (const auto& violation : report.results[index].violations)
        std::cout << "  " << violation << "\n";
    } else {
      const dispatch::PointFailure* failure = failure_of[index];
      std::cout << ": QUARANTINED ("
                << (failure ? failure->what : std::string("not attempted"))
                << ")\n";
    }
  }
}

int run_dispatch(const Options& options) {
  const SweepSpec sweep =
      SweepSpec::from_json_text(read_file(options.sweep_file));

  dispatch::DispatchOptions dispatch_options;
  dispatch_options.workers =
      options.workers > 0
          ? options.workers
          : std::max(1u, std::thread::hardware_concurrency());
  dispatch_options.worker_threads = options.worker_threads.value_or(1);
  dispatch_options.worker_argv = options.worker_cmd;
  dispatch_options.max_point_attempts = options.max_attempts;
  dispatch_options.max_respawns = options.max_respawns;
  dispatch_options.point_timeout_seconds = options.timeout_seconds;
  dispatch_options.test_kill_worker = options.test_kill_worker;
  if (!options.quiet)
    dispatch_options.log = [](const std::string& line) {
      std::cerr << line << "\n";
    };

  const dispatch::DispatchReport report =
      dispatch::dispatch_sweep(sweep, dispatch_options);

  print_points(sweep, report);
  std::cout << report.summary() << "\n";

  if (!options.out_file.empty()) {
    // Same writer as `hoval_cli --sweep --out` when everything completed
    // (byte-identical by the determinism guarantee); a quarantined point
    // becomes a JSON null so the gap is explicit, never misaligned.
    Json documents = Json::array();
    for (int i = 0; i < report.points; ++i) {
      const auto index = static_cast<std::size_t>(i);
      documents.push_back(report.completed[index]
                              ? campaign_result_to_json(report.results[index])
                              : Json());
    }
    std::ofstream out(options.out_file);
    if (!out)
      throw ScenarioError("cannot write results file " + options.out_file);
    out << documents.dump(2) << "\n";
  }

  return report.complete() && report.all_safety_clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Chaos hook: the host installs the plan and forked backends inherit
    // it (exec'd hovald backends read the same variable), so faults hit
    // both socket ends.  Worker losses they cause are absorbed by
    // resubmission + respawn.
    try {
      if (faults::FaultInjector* injector = faults::install_fault_plan_from_env())
        std::cerr << "chaos: fault plan active: "
                  << injector->plan().to_string() << "\n";
    } catch (const faults::FaultError& e) {
      std::cerr << "error: HOVAL_FAULT_PLAN: " << e.what() << "\n";
      return 2;
    }
    const Options options = parse(argc, argv);
    if (options.sweep_file.empty()) usage(argv[0]);
    if (options.worker_threads && !options.worker_cmd.empty()) {
      std::cerr << "error: --worker-threads sizes forked backends only; an "
                   "exec'd backend sets its own (e.g. hovald --threads T)\n";
      return 2;
    }
    return run_dispatch(options);
  } catch (const ScenarioError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const dispatch::DispatchError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
