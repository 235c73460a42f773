#pragma once

/// \file suite.hpp
/// Shared plumbing of the benchmark suite (bench_suite.cpp): command-line
/// options, the checked-in workload files, the job lists derived from
/// --seed, latency statistics, result digests, the in-process daemon the
/// served workloads talk to, and the report whose JSON form is the last
/// line of every run.
///
/// The suite drives the library only through entry points the planned
/// refactors keep: ScenarioSpec / SweepSpec documents, resolve_scenario,
/// Executor::submit, run_refined_sweep, and service::Server +
/// ServiceClient over a Unix socket.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "service/server.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"
#include "util/json.hpp"

namespace suite {

using hoval::Json;

// --- options and workload files ---------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< length of the timed phase
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool smoke = false;     ///< ~1 s per workload, every gate still on
};

/// One checked-in workload file, bench/suite/workloads/<name>.json:
/// {"name", "description", "scenario" | "sweep": spec document, "load":
/// {knob: int}}.  The spec is parsed through ScenarioSpec / SweepSpec at
/// start-up, so a malformed file fails before anything is timed.
struct Workload {
  std::string name;
  std::string description;
  bool is_sweep = false;
  hoval::ScenarioSpec scenario;  ///< when !is_sweep
  hoval::SweepSpec sweep;        ///< when is_sweep
  Json load = Json::object();

  /// A load-shape knob; \throws std::runtime_error when absent.
  int knob(const std::string& key) const;
};

Workload load_workload(const std::string& name);

/// The workload's job `index` for `seed`: the checked-in spec with its
/// campaign seed replaced by one derived from (seed, index) alone, so two
/// builds given the same --seed execute identical job lists.
hoval::ScenarioSpec scenario_job(const Workload& workload, std::uint64_t seed,
                                 std::uint64_t index);
hoval::SweepSpec sweep_job(const Workload& workload, std::uint64_t seed,
                           std::uint64_t index);

/// Executor pool size and the cap on load threads and connections.
int nproc();

// --- clocks and statistics --------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

/// Linear-interpolated percentile (q in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

// --- result digests -----------------------------------------------------------

/// FNV-1a over the result texts of jobs 0..limit-1 in job order.  Runs are
/// timed, so the number of jobs varies; digesting a fixed prefix keeps the
/// digest comparable between runs and builds.  Thread-safe.
class JobDigest {
 public:
  explicit JobDigest(std::size_t limit) : texts_(limit) {}
  void record(std::uint64_t index, const std::string& text);
  /// "fnv1a64=<hex> over <k> jobs" — k < limit only if the run was short.
  std::string summary() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::optional<std::string>> texts_;
};

// --- the report -----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run prints: human-readable lines, then one JSON
/// object {"correct", "attempted", "failed", "metrics"} as the last line.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> lines;     ///< human-readable detail
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  ///< first few gate failures

  void add(std::string name, std::string unit, double value);
  void note(std::string line) { lines.push_back(std::move(line)); }
  /// Counts one failed gate (thread-safe) and keeps its description.
  void fail(const std::string& what);
  bool correct() const { return failed == 0; }

  /// {name: {"value", "unit"}} for every metric.
  Json metrics_json() const;

  /// Prints the report; returns the process exit code.
  int print(const Workload& workload, const Options& options) const;

 private:
  mutable std::mutex mu_;
};

// --- campaigns in flight --------------------------------------------------------

/// The closed loop every local driver runs: campaigns submitted to one
/// Executor, collected in completion order, the caller refilling as each
/// completes.  A campaign completes at its final progress call
/// (completed == total), not when the caller gets round to next(); every
/// workload spec is fixed-budget, so the final call always reports
/// completed == total.  The progress callbacks co-own the completion
/// state, so a campaign still draining after the loop is gone (an
/// exception unwinding past it) stays safe.
class CampaignLoop {
 public:
  explicit CampaignLoop(hoval::Executor& executor) : executor_(executor) {}

  /// Resolves `spec` and submits it; returns its ticket, 0, 1, 2, ... in
  /// submit order.  `decorate`, when set, is handed the ticket and may wrap
  /// the resolved builders just before the submit.
  using Decorator = std::function<void(int ticket, hoval::ResolvedScenario&)>;
  int submit(const hoval::ScenarioSpec& spec, const Decorator& decorate = {});

  struct Completed {
    int ticket = 0;
    std::int64_t submit_ns = 0;  ///< before resolve_scenario
    std::int64_t end_ns = 0;     ///< the final progress call
    hoval::CampaignResult result;
  };
  /// Blocks for the next campaign to complete and collects it.  Requires
  /// in_flight() > 0.
  Completed next();

  std::size_t in_flight() const { return flights_.size(); }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<int, std::int64_t>> done;  ///< (ticket, end_ns)
  };
  struct Flight {
    std::int64_t submit_ns = 0;
    hoval::CampaignHandle handle;
  };
  hoval::Executor& executor_;
  std::shared_ptr<State> state_ = std::make_shared<State>();
  std::map<int, Flight> flights_;
  int next_ticket_ = 0;
};

// --- the served path ------------------------------------------------------------

/// An in-process hovald: a service::Server with hovald's defaults
/// (max_active_jobs = 2, 64 MiB cache) on a Unix socket in the working
/// directory, its poll loop on one thread.  The destructor stops the loop,
/// joins it and removes the socket.
class ServedHarness {
 public:
  explicit ServedHarness(int executor_threads);
  ~ServedHarness();
  ServedHarness(const ServedHarness&) = delete;
  ServedHarness& operator=(const ServedHarness&) = delete;

  const std::string& address() const { return server_->address(); }
  hoval::service::ServerStats stats() const { return server_->stats(); }
  /// The loop's failure, if it threw.
  std::string error() const;

 private:
  std::unique_ptr<hoval::service::Server> server_;
  mutable std::mutex mu_;
  std::string error_;
  std::thread loop_;
};

/// Runs `body(i)` on `count` threads and joins them all; an exception in a
/// thread is counted as a failed gate instead of escaping it.
template <typename Body>
void run_threads(int count, Report& report, const Body& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(count));
  try {
    for (int i = 0; i < count; ++i)
      threads.emplace_back([&report, &body, i] {
        try {
          body(i);
        } catch (const std::exception& e) {
          report.fail(std::string("load thread: ") + e.what());
        }
      });
  } catch (...) {
    for (std::thread& thread : threads) thread.join();
    throw;
  }
  for (std::thread& thread : threads) thread.join();
}

// --- entry points ---------------------------------------------------------------

/// The end-to-end run (--trace 0): set-up, the timed phase, the gates.
void run_workload(const Workload& workload, const Options& options,
                  Report& report);

/// The per-layer run (--trace 1): the workload's sample executed plain and
/// under the tracing decorators, plus replays of the service layers.
void trace_workload(const Workload& workload, const Options& options,
                    Report& report);

}  // namespace suite
