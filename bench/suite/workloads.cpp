/// The end-to-end run of each workload (--trace 0): set-up repeated and
/// timed, then a closed-loop timed phase over the workload's job list,
/// then the output gates.  Load comes from this one process: at most
/// nproc() in-flight jobs or client threads, each with its own connection.

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "refine/driver.hpp"
#include "scenario/run.hpp"
#include "service/client.hpp"
#include "sim/executor.hpp"
#include "sim/result_json.hpp"
#include "suite.hpp"
#include "util/rng.hpp"

namespace suite {

namespace {

using hoval::CampaignResult;
using hoval::Executor;
using hoval::service::JobOutcome;
using hoval::service::ServerStats;
using hoval::service::ServiceClient;

/// Jobs 0..kDigestJobs-1 are digested; every workload completes more in
/// one run.
constexpr std::size_t kDigestJobs = 64;

/// served_cold re-runs every kVerifyEvery-th reply locally.
constexpr std::uint64_t kVerifyEvery = 64;

/// served_hot warms the cache with this many distinct sweeps.
constexpr int kWarmSweeps = 32;

/// Keeps the served_hot resubmission choices apart from the job seeds.
constexpr std::uint64_t kHotPickStream = 0x407C4C4E;

/// Builds the set-up setup_repeats times (once for --smoke), timing each
/// build, and keeps the last one for the timed phase.  Earlier ones are
/// torn down untimed.
template <typename Setup, typename Make>
std::unique_ptr<Setup> timed_setup(const Workload& workload,
                                   const Options& options, Report& report,
                                   const Make& make) {
  const int repeats = options.smoke ? 1 : workload.knob("setup_repeats");
  std::vector<double> seconds;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < repeats; ++i) {
    setup.reset();
    const std::int64_t begin = now_ns();
    setup = make();
    seconds.push_back(ms_between(begin, now_ns()) / 1e3);
  }
  report.add("setup_s", "s", median(seconds));
  report.note("setup: median of " + std::to_string(repeats) + " set-ups");
  return setup;
}

/// Completed jobs of a timed phase, or of one load thread's share of it.
struct Samples {
  std::vector<double> latency_ms;
  std::int64_t last_end_ns = 0;
  long long runs = 0;

  void complete(std::int64_t begin_ns, std::int64_t end_ns, long long job_runs) {
    latency_ms.push_back(ms_between(begin_ns, end_ns));
    last_end_ns = std::max(last_end_ns, end_ns);
    runs += job_runs;
  }
  void merge(const Samples& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    last_end_ns = std::max(last_end_ns, other.last_end_ns);
    runs += other.runs;
  }
};

/// The closed-loop timed phase: load threads start jobs until the
/// deadline and let the jobs in flight finish.
struct Phase {
  explicit Phase(double seconds)
      : start_ns(now_ns()),
        deadline_ns(start_ns + static_cast<std::int64_t>(seconds * 1e9)) {}
  bool open() const { return now_ns() < deadline_ns; }

  /// Reports the end-to-end metrics of the completed jobs.
  void finish(Report& report) const {
    const auto jobs = static_cast<long long>(done.latency_ms.size());
    const double seconds = std::max(
        ms_between(start_ns, std::max(start_ns, done.last_end_ns)) / 1e3, 1e-9);
    report.attempted += jobs;
    report.add("jobs_per_s", "jobs/s", jobs / seconds);
    report.add("job_p50_ms", "ms", percentile(done.latency_ms, 50.0));
    report.add("job_p99_ms", "ms", percentile(done.latency_ms, 99.0));
    report.add("peak_rss_mb", "MB", peak_rss_mb());
    std::ostringstream line;
    line << jobs << " jobs in " << seconds << " s, job_p95_ms "
         << percentile(done.latency_ms, 95.0) << ", runs_per_s "
         << done.runs / seconds;
    report.note(line.str());
  }

  const std::int64_t start_ns;
  const std::int64_t deadline_ns;
  Samples done;
};

void check_safe(const CampaignResult& result, const std::string& what,
                Report& report) {
  if (result.cancelled) report.fail(what + ": cancelled");
  if (!result.safety_clean())
    report.fail(what + ": safety violated: " +
                (result.violations.empty() ? std::string("(no detail)")
                                           : result.violations.front()));
}

/// Executes one scenario job on `executor` and returns its result text.
std::string run_local(Executor& executor, const hoval::ScenarioSpec& spec) {
  CampaignLoop loop(executor);
  loop.submit(spec);
  return hoval::campaign_result_to_json(loop.next().result).dump();
}

// --- local workloads ------------------------------------------------------------

/// A local workload's set-up, as a fresh process does it before its first
/// submit: parse the workload file, resolve the first job's scenarios
/// against the registries, and start the pool.
std::unique_ptr<Executor> make_local(const Options& options) {
  const Workload workload = load_workload(options.workload);
  if (workload.is_sweep) {
    for (const hoval::ScenarioSpec& point :
         sweep_job(workload, options.seed, 0).expand())
      hoval::resolve_scenario(point);
  } else {
    hoval::resolve_scenario(scenario_job(workload, options.seed, 0));
  }
  return std::make_unique<Executor>(nproc());
}

/// kernel_n32: nproc() scenario campaigns in flight on one Executor.  A
/// job's latency runs from before resolve_scenario to its campaign's final
/// progress call.
void run_kernel(const Workload& workload, const Options& options,
                Report& report) {
  const auto executor = timed_setup<Executor>(
      workload, options, report, [&] { return make_local(options); });
  JobDigest digest(kDigestJobs);
  CampaignLoop loop(*executor);
  // Tickets count up from 0 in submit order, so a ticket is its job index.
  std::uint64_t next = 0;
  auto submit = [&] {
    loop.submit(scenario_job(workload, options.seed, next++));
  };

  Phase phase(options.seconds);
  while (static_cast<int>(loop.in_flight()) < nproc()) submit();
  while (loop.in_flight() > 0) {
    const CampaignLoop::Completed job = loop.next();
    phase.done.complete(job.submit_ns, job.end_ns, job.result.runs);
    check_safe(job.result, "job " + std::to_string(job.ticket), report);
    digest.record(static_cast<std::uint64_t>(job.ticket),
                  hoval::campaign_result_to_json(job.result).dump());
    if (phase.open()) submit();
  }
  phase.finish(report);
  report.note("digest " + digest.summary());
}

/// refine_n9: one refined sweep at a time, each a chain of generations.
void run_refine(const Workload& workload, const Options& options,
                Report& report) {
  const auto executor = timed_setup<Executor>(
      workload, options, report, [&] { return make_local(options); });
  JobDigest digest(kDigestJobs);
  long long generations = 0;
  long long points = 0;

  Phase phase(options.seconds);
  for (std::uint64_t index = 0; phase.open(); ++index) {
    const std::int64_t begin = now_ns();
    const hoval::RefinedSweepResult result = hoval::run_refined_sweep(
        sweep_job(workload, options.seed, index), executor.get());
    phase.done.complete(begin, now_ns(), result.runs_executed);
    generations += result.generations;
    points += static_cast<long long>(result.points.size());
    if (result.cancelled) report.fail("sweep " + std::to_string(index) + ": cancelled");
    for (const hoval::RefinedPoint& point : result.points)
      check_safe(point.result, "sweep " + std::to_string(index), report);
    digest.record(index, result.to_json().dump());
  }
  phase.finish(report);
  const auto sweeps = static_cast<double>(phase.done.latency_ms.size());
  report.note("per sweep: " + std::to_string(generations / sweeps) +
              " generations, " + std::to_string(points / sweeps) + " points");
  report.note("digest " + digest.summary());
}

// --- served workloads -------------------------------------------------------------

struct ServedSetup {
  Workload workload;
  std::unique_ptr<ServedHarness> harness;
  std::vector<std::unique_ptr<ServiceClient>> clients;
  std::vector<Json> warm_docs;          ///< served_hot: the warm sweeps
  std::vector<std::string> warm_texts;  ///< their replies' result text
};

int client_count(const Workload& workload) {
  return std::min(workload.knob("clients"), nproc());
}

std::unique_ptr<ServedSetup> make_served(const std::string& name) {
  auto setup = std::make_unique<ServedSetup>();
  setup->workload = load_workload(name);
  setup->harness = std::make_unique<ServedHarness>(nproc());
  for (int c = 0; c < client_count(setup->workload); ++c)
    setup->clients.push_back(
        std::make_unique<ServiceClient>(setup->harness->address()));
  return setup;
}

/// Counts the server's failure counters over the phase as failed jobs.
void check_server(const ServedSetup& setup, const ServerStats& before,
                  Report& report) {
  const ServerStats after = setup.harness->stats();
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<long long>(a - b);
  };
  std::ostringstream line;
  line << "server: cache_hits " << delta(after.cache_hits, before.cache_hits)
       << ", cache_misses " << delta(after.cache_misses, before.cache_misses)
       << ", jobs_shed " << delta(after.jobs_shed, before.jobs_shed)
       << ", jobs_failed " << delta(after.jobs_failed, before.jobs_failed)
       << ", clients_timed_out "
       << delta(after.clients_timed_out, before.clients_timed_out);
  report.note(line.str());
  if (after.jobs_failed != before.jobs_failed)
    report.fail("server answered jobs with errors");
  if (after.jobs_shed != before.jobs_shed) report.fail("server shed jobs");
  if (after.clients_timed_out != before.clients_timed_out)
    report.fail("server dropped clients");
  if (!setup.harness->error().empty())
    report.fail("server loop: " + setup.harness->error());
}

/// served_cold: every call is a fresh seed, so every call misses the
/// cache and executes; every kVerifyEvery-th reply is re-run locally and
/// must match byte for byte.
void run_served_cold(const Workload& workload, const Options& options,
                     Report& report) {
  const auto setup = timed_setup<ServedSetup>(
      workload, options, report, [&] { return make_served(options.workload); });
  const int clients = static_cast<int>(setup->clients.size());
  JobDigest digest(kDigestJobs);
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::string>> to_verify;
  std::vector<Samples> shares(static_cast<std::size_t>(clients));

  const ServerStats before = setup->harness->stats();
  Phase phase(options.seconds);
  run_threads(clients, report, [&](int c) {
    const auto slot = static_cast<std::size_t>(c);
    for (std::uint64_t j = 0; phase.open(); ++j) {
      const std::uint64_t index = j * static_cast<std::uint64_t>(clients) +
                                  static_cast<std::uint64_t>(c);
      const Json doc = scenario_job(workload, options.seed, index).to_json();
      const std::int64_t begin = now_ns();
      const JobOutcome outcome = setup->clients[slot]->submit_scenario(doc);
      const std::int64_t end = now_ns();
      const std::string what = "job " + std::to_string(index);
      if (!outcome.ok) {
        shares[slot].complete(begin, end, 0);
        report.fail(what + ": " + outcome.error);
        continue;
      }
      if (outcome.cache_hit) report.fail(what + ": unexpected cache hit");
      const CampaignResult result =
          hoval::campaign_result_from_json(outcome.result);
      shares[slot].complete(begin, end, result.runs);
      check_safe(result, what, report);
      std::string text = outcome.result.dump();
      digest.record(index, text);
      if (index % kVerifyEvery == 0) {
        std::lock_guard<std::mutex> lock(mu);
        to_verify.emplace_back(index, std::move(text));
      }
    }
  });
  for (const Samples& share : shares) phase.done.merge(share);
  check_server(*setup, before, report);
  phase.finish(report);

  Executor local(nproc());
  for (const auto& [index, text] : to_verify)
    if (run_local(local, scenario_job(workload, options.seed, index)) != text)
      report.fail("job " + std::to_string(index) +
                  ": served bytes differ from a local run");
  report.attempted += static_cast<long long>(to_verify.size());
  report.note(std::to_string(to_verify.size()) +
              " served replies re-run locally, byte-identical");
  report.note("digest " + digest.summary());
}

/// served_hot's set-up: the server and clients, plus the cache warm-up —
/// kWarmSweeps distinct sweeps submitted once, split over the clients.
std::unique_ptr<ServedSetup> make_served_hot(const Options& options) {
  auto setup = make_served(options.workload);
  const int clients = static_cast<int>(setup->clients.size());
  setup->warm_docs.resize(kWarmSweeps);
  setup->warm_texts.resize(kWarmSweeps);
  Report warm;
  run_threads(clients, warm, [&](int c) {
    for (int k = c; k < kWarmSweeps; k += clients) {
      const auto slot = static_cast<std::size_t>(k);
      setup->warm_docs[slot] =
          sweep_job(setup->workload, options.seed, slot).to_json();
      const JobOutcome outcome =
          setup->clients[static_cast<std::size_t>(c)]->submit_sweep(
              setup->warm_docs[slot]);
      if (!outcome.ok)
        throw std::runtime_error("warm-up sweep " + std::to_string(k) + ": " +
                                 outcome.error);
      for (const CampaignResult& result :
           hoval::campaign_results_from_json(outcome.result))
        if (!result.safety_clean())
          throw std::runtime_error("warm-up sweep " + std::to_string(k) +
                                   ": safety violated");
      setup->warm_texts[slot] = outcome.result.dump();
    }
  });
  if (!warm.correct()) throw std::runtime_error(warm.failures.front());
  return setup;
}

/// served_hot: clients resubmit seeded picks of the warm sweeps; every
/// reply must be a cache hit, byte-identical to its warm-up reply.
void run_served_hot(const Workload& workload, const Options& options,
                    Report& report) {
  const auto setup = timed_setup<ServedSetup>(
      workload, options, report, [&] { return make_served_hot(options); });
  const int clients = static_cast<int>(setup->clients.size());
  JobDigest digest(kDigestJobs);
  std::vector<Samples> shares(static_cast<std::size_t>(clients));

  const ServerStats before = setup->harness->stats();
  Phase phase(options.seconds);
  run_threads(clients, report, [&](int c) {
    const auto slot = static_cast<std::size_t>(c);
    hoval::Rng picks(hoval::mix_seed(options.seed,
                                     static_cast<std::uint64_t>(c),
                                     kHotPickStream));
    for (std::uint64_t j = 0; phase.open(); ++j) {
      const std::uint64_t index = j * static_cast<std::uint64_t>(clients) +
                                  static_cast<std::uint64_t>(c);
      const auto k =
          static_cast<std::size_t>(picks.below(setup->warm_docs.size()));
      const std::int64_t begin = now_ns();
      const JobOutcome outcome =
          setup->clients[slot]->submit_sweep(setup->warm_docs[k]);
      shares[slot].complete(begin, now_ns(), 0);
      const std::string what = "job " + std::to_string(index);
      if (!outcome.ok) {
        report.fail(what + ": " + outcome.error);
        continue;
      }
      if (!outcome.cache_hit) report.fail(what + ": not served from the cache");
      const std::string text = outcome.result.dump();
      if (text != setup->warm_texts[k])
        report.fail(what + ": reply differs from its warm-up reply");
      digest.record(index, text);
    }
  });
  for (const Samples& share : shares) phase.done.merge(share);
  check_server(*setup, before, report);
  phase.finish(report);
  report.note("digest " + digest.summary());
}

}  // namespace

void run_workload(const Workload& workload, const Options& options,
                  Report& report) {
  report.note(workload.description);
  if (workload.name == "kernel_n32") return run_kernel(workload, options, report);
  if (workload.name == "refine_n9") return run_refine(workload, options, report);
  if (workload.name == "served_cold")
    return run_served_cold(workload, options, report);
  if (workload.name == "served_hot")
    return run_served_hot(workload, options, report);
  throw std::runtime_error("unknown workload " + workload.name);
}

}  // namespace suite
