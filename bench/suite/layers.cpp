/// The per-layer run of each workload (--trace 1).
///
/// The workload's sample — the first trace_jobs jobs of its job list (for
/// served_hot the first 32 are its warm sweeps) — runs twice on a local
/// Executor: plain, then with every campaign's builders wrapped in the
/// tracing decorators (tracing.hpp).  The two passes must produce
/// byte-identical results (observation is inert), and their runs/s
/// difference is the tracing overhead.  Refined sweeps cannot be decorated
/// from outside RefinementDriver, so each sampled sweep runs once through
/// run_refined_sweep and its points are then replayed generation by
/// generation with the seeds it chose; every replayed point must match its
/// bytes.
///
/// Layers the server runs internally are measured by replay: the public
/// protocol, framing, cache and serialisation functions re-timed on this
/// workload's own documents, plus a probe of an in-process daemon (connect,
/// cold and cache-hit submissions of the first probe_jobs jobs, and
/// Server::stats() deltas).  Everything is written to BENCH_suite_layers.json
/// and BENCH_suite_trace.json in the working directory, keyed by workload.

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "dispatch/wire.hpp"
#include "refine/driver.hpp"
#include "scenario/run.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "sim/executor.hpp"
#include "sim/result_json.hpp"
#include "suite.hpp"
#include "tracing.hpp"

namespace suite {

namespace {

using hoval::CampaignResult;
using hoval::Executor;
using hoval::ScenarioSpec;
using hoval::SweepSpec;

/// One job of the sample: the document a client would submit, the
/// campaigns it expands to (submitted generation by generation), and its
/// canonical result text.
struct SampleJob {
  Json doc;
  bool sweep = false;
  std::string cache_key;
  std::vector<std::vector<ScenarioSpec>> generations;
  std::optional<hoval::RefinedSweepResult> refined;
  /// Refined sweeps: RefinementDriver's per-point bytes, flattened like
  /// generations — what the replay must reproduce.
  std::vector<std::string> expected;
  std::string text;  ///< from the plain pass, or run_refined_sweep

  std::size_t campaigns() const {
    std::size_t count = 0;
    for (const auto& generation : generations) count += generation.size();
    return count;
  }
};

struct Pass {
  double wall_s = 0.0;
  long long runs = 0;
  std::vector<std::vector<CampaignResult>> results;  ///< per job, flattened
  std::vector<std::vector<std::string>> texts;
  std::vector<double> job_ms;
  std::vector<std::shared_ptr<tracing::CampaignSpan>> spans;  ///< traced
  std::int64_t start_ns = 0;
};

/// Runs `jobs` on `executor` with up to `window` jobs in flight, each job
/// one generation at a time.  With `traced`, every campaign is decorated.
Pass run_pass(Executor& executor, const std::vector<SampleJob>& jobs,
              int window, bool traced) {
  Pass pass;
  pass.results.resize(jobs.size());
  pass.texts.resize(jobs.size());
  pass.job_ms.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    pass.results[j].resize(jobs[j].campaigns());
    pass.texts[j].resize(jobs[j].campaigns());
  }

  struct Slot {
    std::size_t job = 0;
    std::size_t slot = 0;  ///< flattened campaign index within the job
    std::shared_ptr<tracing::CampaignSpan> span;
  };
  CampaignLoop loop(executor);
  std::map<int, Slot> slots;  ///< by ticket
  std::vector<std::size_t> generation(jobs.size(), 0);
  std::vector<std::size_t> first_slot(jobs.size(), 0);
  std::vector<int> outstanding(jobs.size(), 0);
  std::vector<std::int64_t> job_start(jobs.size(), 0);

  auto start_generation = [&](std::size_t job) {
    const auto& specs = jobs[job].generations[generation[job]];
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Slot slot{job, first_slot[job] + i, nullptr};
      CampaignLoop::Decorator decorate;
      if (traced) {
        slot.span = std::make_shared<tracing::CampaignSpan>();
        slot.span->job = static_cast<int>(job);
        slot.span->keep_records = job == 0 && slot.slot == 0;
        pass.spans.push_back(slot.span);
        decorate = [span = slot.span](int ticket,
                                      hoval::ResolvedScenario& resolved) {
          span->id = ticket;
          tracing::decorate(resolved, span);
          span->submit_ns = now_ns();
        };
      }
      const int ticket = loop.submit(specs[i], decorate);
      slots.emplace(ticket, std::move(slot));
    }
    first_slot[job] += specs.size();
    outstanding[job] = static_cast<int>(specs.size());
  };

  if (traced) tracing::reset();
  pass.start_ns = now_ns();
  std::size_t next_job = 0;
  int active = 0;
  auto start_job = [&] {
    job_start[next_job] = now_ns();
    start_generation(next_job++);
    ++active;
  };
  while (active < window && next_job < jobs.size()) start_job();
  while (active > 0) {
    CampaignLoop::Completed done = loop.next();
    const auto it = slots.find(done.ticket);
    const Slot slot = it->second;
    slots.erase(it);
    if (slot.span) slot.span->taken_ns = now_ns();
    const std::size_t job = slot.job;
    pass.runs += done.result.runs;
    pass.texts[job][slot.slot] =
        hoval::campaign_result_to_json(done.result).dump();
    pass.results[job][slot.slot] = std::move(done.result);
    if (--outstanding[job] > 0) continue;
    if (++generation[job] < jobs[job].generations.size()) {
      start_generation(job);
      continue;
    }
    pass.job_ms[job] = ms_between(job_start[job], now_ns());
    --active;
    if (next_job < jobs.size()) start_job();
  }
  pass.wall_s = ms_between(pass.start_ns, now_ns()) / 1e3;
  return pass;
}

/// The canonical result text of job `j` of a pass: what the service would
/// send and cache for it.
std::string job_text(const SampleJob& job, const std::vector<CampaignResult>& results) {
  if (job.refined) return job.refined->to_json().dump();
  if (job.sweep) return hoval::campaign_results_to_json(results).dump();
  return hoval::campaign_result_to_json(results.front()).dump();
}

/// The sample; refined sweeps run through run_refined_sweep here.
std::vector<SampleJob> build_sample(const Workload& workload,
                                    const Options& options, Executor& executor,
                                    std::size_t count) {
  std::vector<SampleJob> jobs(count);
  for (std::size_t j = 0; j < count; ++j) {
    SampleJob& job = jobs[j];
    if (!workload.is_sweep) {
      const ScenarioSpec spec = scenario_job(workload, options.seed, j);
      job.doc = spec.to_json();
      job.cache_key = hoval::service::scenario_cache_key(spec);
      job.generations = {{spec}};
      continue;
    }
    const SweepSpec sweep = sweep_job(workload, options.seed, j);
    job.sweep = true;
    job.doc = sweep.to_json();
    job.cache_key = hoval::service::sweep_cache_key(sweep);
    if (!sweep.refine.enabled) {
      job.generations = {sweep.expand()};
      continue;
    }
    job.refined = hoval::run_refined_sweep(sweep, &executor);
    job.text = job.refined->to_json().dump();
    job.generations.resize(static_cast<std::size_t>(job.refined->generations));
    std::vector<std::vector<std::string>> expected(job.generations.size());
    for (const hoval::RefinedPoint& point : job.refined->points) {
      ScenarioSpec spec = sweep.expand_at(point.coordinates);
      spec.campaign.seed = point.seed;
      const auto g = static_cast<std::size_t>(point.generation);
      job.generations.at(g).push_back(std::move(spec));
      expected[g].push_back(hoval::campaign_result_to_json(point.result).dump());
    }
    for (auto& generation : expected)
      job.expected.insert(job.expected.end(), generation.begin(),
                          generation.end());
  }
  return jobs;
}

/// Median over `reps` timings of `op`, in microseconds.
template <typename Op>
double time_us(int reps, const Op& op) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t begin = now_ns();
    op();
    samples.push_back(static_cast<double>(now_ns() - begin) / 1e3);
  }
  return median(samples);
}

/// Per-operation medians of the replayed service, scenario and wire
/// layers over the sample's documents.
struct Replays {
  double parse_us = 0, resolve_us = 0, canonical_dump_us = 0;
  double result_json_us = 0;
  double encode_submit_us = 0, parse_submit_us = 0;
  double encode_result_us = 0, parse_result_us = 0;
  double submit_frame_us = 0;  ///< encode + decode of the submit frame
  double frame_encode_us = 0, frame_decode_us = 0;
  double cache_lookup_us = 0;
  double reply_bytes = 0;

  /// What a cache-hit round trip costs in replayed functions.
  double hit_path_us() const {
    return encode_submit_us + submit_frame_us + parse_submit_us + parse_us +
           canonical_dump_us + cache_lookup_us + encode_result_us +
           frame_encode_us + frame_decode_us + parse_result_us;
  }
};

Replays replay_layers(const std::vector<SampleJob>& jobs, const Pass& plain) {
  constexpr int kReps = 7;
  std::vector<double> parse, resolve, dump, result_json, encode_submit,
      parse_submit, encode_result, parse_result, submit_frame, frame_encode,
      frame_decode, lookup, reply_bytes;
  std::size_t sink = 0;  // keeps the timed calls observable
  hoval::service::ResultCache cache(std::size_t{64} << 20);
  for (const SampleJob& job : jobs) cache.insert(job.cache_key, job.text);

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const SampleJob& job = jobs[j];
    parse.push_back(time_us(kReps, [&] {
      if (job.sweep)
        sink += SweepSpec::from_json(job.doc).axes.size();
      else
        sink += ScenarioSpec::from_json(job.doc).adversaries.size();
    }));
    for (const auto& generation : job.generations)
      for (const ScenarioSpec& spec : generation)
        resolve.push_back(time_us(1, [&] {
          sink += hoval::resolve_scenario(spec).config.predicates.size();
        }));
    if (job.sweep) {
      const SweepSpec spec = SweepSpec::from_json(job.doc);
      dump.push_back(time_us(kReps, [&] {
        sink += hoval::service::sweep_cache_key(spec).size();
      }));
    } else {
      const ScenarioSpec spec = ScenarioSpec::from_json(job.doc);
      dump.push_back(time_us(kReps, [&] {
        sink += hoval::service::scenario_cache_key(spec).size();
      }));
    }
    result_json.push_back(time_us(kReps, [&] {
      sink += job_text(job, plain.results[j]).size();
    }));

    const std::string submit =
        hoval::service::encode_submit(1, job.sweep, job.doc, false);
    encode_submit.push_back(time_us(kReps, [&] {
      sink += hoval::service::encode_submit(1, job.sweep, job.doc, false).size();
    }));
    parse_submit.push_back(time_us(kReps, [&] {
      sink += hoval::service::parse_client_message(submit).spec.size();
    }));
    submit_frame.push_back(time_us(kReps, [&] {
      hoval::dispatch::FrameDecoder decoder;
      const std::string frame = hoval::dispatch::encode_frame(submit);
      decoder.feed(frame.data(), frame.size());
      sink += decoder.next()->size();
    }));

    const std::string reply =
        hoval::service::encode_result_text(1, true, job.text);
    reply_bytes.push_back(static_cast<double>(reply.size() +
                                              hoval::dispatch::kFrameHeaderBytes));
    encode_result.push_back(time_us(kReps, [&] {
      sink += hoval::service::encode_result_text(1, true, job.text).size();
    }));
    parse_result.push_back(time_us(kReps, [&] {
      sink += hoval::service::parse_server_message(reply).result.size();
    }));
    const std::string frame = hoval::dispatch::encode_frame(reply);
    frame_encode.push_back(time_us(kReps, [&] {
      sink += hoval::dispatch::encode_frame(reply).size();
    }));
    frame_decode.push_back(time_us(kReps, [&] {
      hoval::dispatch::FrameDecoder decoder;
      decoder.feed(frame.data(), frame.size());
      sink += decoder.next()->size();
    }));
    lookup.push_back(time_us(kReps, [&] {
      sink += cache.lookup(job.cache_key)->size();
    }));
  }
  if (sink == 0) throw std::runtime_error("replays produced nothing");

  Replays r;
  r.parse_us = median(parse);
  r.resolve_us = median(resolve);
  r.canonical_dump_us = median(dump);
  r.result_json_us = median(result_json);
  r.encode_submit_us = median(encode_submit);
  r.parse_submit_us = median(parse_submit);
  r.submit_frame_us = median(submit_frame);
  r.encode_result_us = median(encode_result);
  r.parse_result_us = median(parse_result);
  r.frame_encode_us = median(frame_encode);
  r.frame_decode_us = median(frame_decode);
  r.cache_lookup_us = median(lookup);
  r.reply_bytes = median(reply_bytes);
  return r;
}

/// The in-process daemon probe: connect, then each probe job submitted
/// cold (must match the local bytes) and resubmitted from the cache.
struct Probe {
  double connect_ms = 0, cold_ms_p50 = 0, hot_us_p50 = 0;
  hoval::service::ServerStats stats;  ///< deltas over the submissions
  long long submissions = 0;
};

Probe probe_service(const std::vector<SampleJob>& jobs, Report& report) {
  constexpr int kConnects = 5;
  constexpr int kHotRounds = 4;
  ServedHarness harness(nproc());
  Probe probe;
  std::unique_ptr<hoval::service::ServiceClient> client;
  std::vector<double> connect;
  for (int i = 0; i < kConnects; ++i) {
    client.reset();
    const std::int64_t begin = now_ns();
    client = std::make_unique<hoval::service::ServiceClient>(harness.address());
    connect.push_back(ms_between(begin, now_ns()));
  }
  probe.connect_ms = median(connect);

  const hoval::service::ServerStats before = harness.stats();
  std::vector<double> cold, hot;
  auto submit = [&](const SampleJob& job, bool expect_hit,
                    std::vector<double>& latency, double scale) {
    const std::int64_t begin = now_ns();
    const hoval::service::JobOutcome outcome =
        job.sweep ? client->submit_sweep(job.doc) : client->submit_scenario(job.doc);
    latency.push_back(ms_between(begin, now_ns()) * scale);
    ++probe.submissions;
    if (!outcome.ok)
      report.fail("probe: " + outcome.error);
    else if (outcome.cache_hit != expect_hit)
      report.fail(expect_hit ? "probe: resubmission missed the cache"
                             : "probe: first submission hit the cache");
    else if (outcome.result.dump() != job.text)
      report.fail("probe: served bytes differ from the local run");
  };
  for (const SampleJob& job : jobs) submit(job, false, cold, 1.0);
  for (int round = 0; round < kHotRounds; ++round)
    for (const SampleJob& job : jobs) submit(job, true, hot, 1e3);
  const hoval::service::ServerStats after = harness.stats();
  probe.cold_ms_p50 = median(cold);
  probe.hot_us_p50 = median(hot);
  probe.stats.cache_hits = after.cache_hits - before.cache_hits;
  probe.stats.cache_misses = after.cache_misses - before.cache_misses;
  probe.stats.jobs_shed = after.jobs_shed - before.jobs_shed;
  probe.stats.jobs_failed = after.jobs_failed - before.jobs_failed;
  probe.stats.clients_timed_out = after.clients_timed_out - before.clients_timed_out;
  if (!harness.error().empty()) report.fail("probe server: " + harness.error());
  return probe;
}

/// Replaces `workload`'s entry of the JSON object in `path`.
void merge_into(const std::string& path, const std::string& workload, Json entry) {
  Json doc = Json::object();
  if (std::ifstream in{path}) {
    std::ostringstream text;
    text << in.rdbuf();
    try {
      doc = Json::parse(text.str());
    } catch (const hoval::JsonError&) {
      doc = Json::object();  // a torn file from an interrupted run
    }
    if (!doc.is_object()) doc = Json::object();
  }
  doc.set(workload, std::move(entry));
  std::ofstream out(path);
  out << doc.dump(1) << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

Json span_aggregates(const tracing::LayerTotals& t, const Pass& traced) {
  long long campaigns = 0;
  std::int64_t campaign_ns = 0, wait_ns = 0, tail_ns = 0;
  for (const auto& span : traced.spans) {
    ++campaigns;
    campaign_ns += span->taken_ns - span->submit_ns;
    wait_ns += span->first_start.load() - span->submit_ns;
    tail_ns += span->taken_ns - span->last_end.load();
  }
  const std::int64_t round_ns = t.run_ns - t.setup_ns - t.finish_ns;
  struct Row {
    const char* name;
    const char* parent;
    long long count;
    std::int64_t total_ns;
  };
  const Row rows[] = {
      {"campaign", "job", campaigns, campaign_ns},
      {"executor.queue_wait", "campaign", campaigns, wait_ns},
      {"executor.tail", "campaign", campaigns, tail_ns},
      {"run", "campaign", t.runs, t.run_ns},
      {"run.setup", "run", t.runs, t.setup_ns},
      {"adversary.build", "run.setup", t.runs, t.build_ns},
      {"round", "run", t.rounds, round_ns},
      {"core.send", "round", t.rounds, t.send_ns},
      {"adversary.apply", "round", t.apply_calls, t.apply_ns},
      {"core.transition", "round", t.rounds, t.transition_ns},
      {"predicates.on_round", "round", t.on_round_calls, t.predicate_ns},
      {"sim.self", "round", t.rounds, t.self_ns},
      {"run.finish", "run", t.runs, t.finish_ns},
  };
  Json list = Json::array();
  for (const Row& row : rows) {
    Json o = Json::object();
    o.set("name", row.name);
    o.set("parent", row.parent);
    o.set("count", row.count);
    o.set("total_ns", row.total_ns);
    list.push_back(std::move(o));
  }
  return list;
}

/// Full span records of the first job's first campaign, times relative to
/// the traced pass's start.
Json span_records(const Pass& traced) {
  Json list = Json::array();
  const std::int64_t origin = traced.start_ns;
  int id = 0;
  for (const auto& span : traced.spans) {
    if (!span->keep_records) continue;
    Json o = Json::object();
    o.set("id", id++);
    o.set("name", "campaign");
    o.set("start_ns", span->submit_ns - origin);
    o.set("end_ns", span->taken_ns - origin);
    o.set("parent", -1);
    o.set("campaign", span->id);
    o.set("job", span->job);
    list.push_back(std::move(o));
  }
  // Thread records point at their campaign (parent -1) or at each other.
  const int campaign_id = id - 1;
  const int base = id;
  for (const tracing::SpanRecord& record : tracing::records()) {
    Json o = Json::object();
    o.set("id", id++);
    o.set("name", record.name);
    o.set("start_ns", record.start_ns - origin);
    o.set("end_ns", record.end_ns - origin);
    o.set("parent", record.parent < 0 ? campaign_id : base + record.parent);
    o.set("campaign", record.campaign);
    o.set("job", record.job);
    list.push_back(std::move(o));
  }
  return list;
}

std::string pass_digest(const Pass& pass) {
  JobDigest digest(pass.texts.size());
  for (std::size_t j = 0; j < pass.texts.size(); ++j) {
    std::string joined;
    for (const std::string& text : pass.texts[j]) joined += text;
    digest.record(j, joined);
  }
  return digest.summary();
}

}  // namespace

void trace_workload(const Workload& workload, const Options& options,
                    Report& report) {
  report.note(workload.description);
  const int threads = nproc();
  auto scaled = [&](const char* knob) {
    const auto full = static_cast<std::size_t>(workload.knob(knob));
    return options.smoke ? std::max<std::size_t>(2, full / 8) : full;
  };
  Executor executor(threads);
  std::vector<SampleJob> jobs =
      build_sample(workload, options, executor, scaled("trace_jobs"));
  // Only the kernel workload keeps several jobs in flight.
  const int window = workload.name == "kernel_n32" ? threads : 1;
  auto first = [&](std::size_t count) {
    return std::vector<SampleJob>(
        jobs.begin(),
        jobs.begin() + static_cast<std::ptrdiff_t>(std::min(count, jobs.size())));
  };

  // Untimed warm-up, so neither timed pass pays first-touch costs.
  run_pass(executor, first(8), window, /*traced=*/false);
  const Pass plain = run_pass(executor, jobs, window, /*traced=*/false);
  const Pass traced = run_pass(executor, jobs, window, /*traced=*/true);
  const tracing::LayerTotals t = tracing::totals();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SampleJob& job = jobs[j];
    if (job.refined) {
      if (plain.texts[j] != job.expected)
        report.fail("job " + std::to_string(j) +
                    ": replayed refined points differ from run_refined_sweep");
    } else {
      job.text = job_text(job, plain.results[j]);
    }
    if (traced.texts[j] != plain.texts[j])
      report.fail("job " + std::to_string(j) + ": tracing changed result bytes");
    for (const CampaignResult& result : plain.results[j])
      if (!result.safety_clean() || result.cancelled)
        report.fail("job " + std::to_string(j) + ": safety violated");
  }
  report.attempted += 2 * static_cast<long long>(jobs.size());
  const std::string digest_plain = pass_digest(plain);
  const std::string digest_traced = pass_digest(traced);
  report.note("sample: " + std::to_string(jobs.size()) + " jobs, " +
              std::to_string(plain.runs) + " runs; digest plain " +
              digest_plain + ", traced " + digest_traced);

  const std::vector<SampleJob> probe_jobs = first(scaled("probe_jobs"));
  const Pass solo = run_pass(executor, probe_jobs, 1, /*traced=*/false);
  const Replays replays = replay_layers(jobs, plain);
  const Probe probe = probe_service(probe_jobs, report);
  report.attempted += probe.submissions;

  const double rounds = static_cast<double>(std::max<long long>(t.rounds, 1));
  const double runs = static_cast<double>(std::max<long long>(t.runs, 1));
  const double plain_rps = plain.runs / plain.wall_s;
  const double traced_rps = traced.runs / traced.wall_s;
  std::vector<double> queue_wait, tail;
  for (const auto& span : traced.spans) {
    queue_wait.push_back(ms_between(span->submit_ns, span->first_start.load()));
    tail.push_back(ms_between(span->last_end.load(), span->taken_ns));
  }
  double generations = 0, points = 0, saved = 0, job_runs = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    generations += static_cast<double>(jobs[j].generations.size());
    points += static_cast<double>(jobs[j].campaigns());
    for (const CampaignResult& result : plain.results[j]) job_runs += result.runs;
    if (jobs[j].refined) saved += jobs[j].refined->runs_saved_pct();
  }
  const double n_jobs = static_cast<double>(jobs.size());

  report.add("core.send_ns_per_round", "ns", t.send_ns / rounds);
  report.add("core.transition_ns_per_round", "ns", t.transition_ns / rounds);
  report.add("core.send_calls", "count", static_cast<double>(t.send_calls));
  report.add("core.transition_calls", "count",
             static_cast<double>(t.transition_calls));
  report.add("adversary.apply_ns_per_round", "ns", t.apply_ns / rounds);
  report.add("adversary.build_us_per_run", "us", t.build_ns / runs / 1e3);
  report.add("adversary.apply_calls", "count", static_cast<double>(t.apply_calls));
  report.add("predicates.ns_per_round", "ns", t.predicate_ns / rounds);
  report.add("predicates.on_round_calls", "count",
             static_cast<double>(t.on_round_calls));
  report.add("sim.self_ns_per_round", "ns", t.self_ns / rounds);
  report.add("sim.run_setup_us", "us", t.setup_ns / runs / 1e3);
  report.add("sim.run_finish_us", "us", t.finish_ns / runs / 1e3);
  report.add("sim.rounds_per_run", "rounds", t.rounds / runs);
  report.add("sim.result_json_us", "us", replays.result_json_us);
  report.add("executor.busy_share", "ratio",
             t.run_ns / 1e9 / (traced.wall_s * threads));
  report.add("executor.queue_wait_ms_p50", "ms", median(queue_wait));
  report.add("executor.tail_ms_p50", "ms", median(tail));
  report.add("executor.runs_per_s", "runs/s", plain_rps);
  report.add("trace.overhead_pct", "%", (1.0 - traced_rps / plain_rps) * 100.0);
  report.add("scenario.parse_us", "us", replays.parse_us);
  report.add("scenario.resolve_us", "us", replays.resolve_us);
  report.add("scenario.canonical_dump_us", "us", replays.canonical_dump_us);
  report.add("refine.generations_per_sweep", "count", generations / n_jobs);
  report.add("refine.points_per_sweep", "count", points / n_jobs);
  report.add("refine.runs_per_sweep", "count", job_runs / n_jobs);
  report.add("refine.runs_saved_pct", "%", saved / n_jobs);
  report.add("service.connect_ms", "ms", probe.connect_ms);
  report.add("service.exec_ms_p50", "ms", median(solo.job_ms));
  report.add("service.cold_ms_p50", "ms", probe.cold_ms_p50);
  report.add("service.hot_us_p50", "us", probe.hot_us_p50);
  report.add("service.unaccounted_us_p50", "us",
             probe.hot_us_p50 - replays.hit_path_us());
  report.add("service.cache_lookup_us", "us", replays.cache_lookup_us);
  report.add("service.encode_submit_us", "us", replays.encode_submit_us);
  report.add("service.parse_submit_us", "us", replays.parse_submit_us);
  report.add("service.encode_result_us", "us", replays.encode_result_us);
  report.add("service.parse_result_us", "us", replays.parse_result_us);
  report.add("service.reply_bytes", "B", replays.reply_bytes);
  report.add("service.cache_hits", "count",
             static_cast<double>(probe.stats.cache_hits));
  report.add("service.cache_misses", "count",
             static_cast<double>(probe.stats.cache_misses));
  report.add("service.jobs_shed", "count", static_cast<double>(probe.stats.jobs_shed));
  report.add("service.jobs_failed", "count",
             static_cast<double>(probe.stats.jobs_failed));
  report.add("service.clients_timed_out", "count",
             static_cast<double>(probe.stats.clients_timed_out));
  report.add("dispatch.frame_encode_us", "us", replays.frame_encode_us);
  report.add("dispatch.frame_decode_us", "us", replays.frame_decode_us);

  Json layers = Json::object();
  layers.set("seed", options.seed);
  layers.set("digest_plain", digest_plain);
  layers.set("digest_traced", digest_traced);
  layers.set("metrics", report.metrics_json());
  merge_into("BENCH_suite_layers.json", workload.name, std::move(layers));

  Json trace = Json::object();
  trace.set("seed", options.seed);
  trace.set("aggregates", span_aggregates(t, traced));
  trace.set("records", span_records(traced));
  merge_into("BENCH_suite_trace.json", workload.name, std::move(trace));
  report.note("wrote BENCH_suite_layers.json and BENCH_suite_trace.json");
}

}  // namespace suite
