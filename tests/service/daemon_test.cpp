/// End-to-end tests of hovald (service/server.hpp) against an in-process
/// server on a real socket: daemon-served scenario and sweep results must
/// be byte-identical to local run_scenario()/run_sweep() output, repeats
/// must be served from the spec-hash cache without executing runs,
/// concurrent clients must not perturb each other, and a disconnect must
/// cancel the client's in-flight jobs while other clients' jobs finish
/// untouched.  The same Server also serves one adopted socket (a
/// socketpair end here; `hovald --stdio` and hoval_dispatch's backends in
/// production) and returns from run() once that peer is gone.

#include "service/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dispatch/stream.hpp"
#include "dispatch/wire.hpp"
#include "refine/driver.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"
#include "sim/result_json.hpp"
#include "util/json.hpp"

namespace hoval::service {
namespace {

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/hovald-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// An in-process server on its own thread; stops and joins on scope exit.
class ServerFixture {
 public:
  explicit ServerFixture(ServerConfig config) {
    if (config.address.empty()) config.address = unique_socket_path();
    if (config.executor_threads == 0) config.executor_threads = 2;
    server_ = std::make_unique<Server>(std::move(config));
    thread_ = std::thread([this] { server_->run(); });
  }
  ~ServerFixture() {
    server_->stop();
    thread_.join();
  }
  Server& server() { return *server_; }
  const std::string& address() const { return server_->address(); }

 private:
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

ScenarioSpec small_spec(int runs = 10, std::uint64_t seed = 42) {
  ScenarioSpec spec;
  spec.algorithm = component("ate", {{"n", 9}, {"alpha", 1}});
  spec.campaign.runs = runs;
  spec.campaign.seed = seed;
  return spec;
}

/// A job that stays in flight for minutes if nobody cancels it: many
/// moderate runs (cancellation is checked between run claims, so the run
/// count — not the run length — bounds cancel latency), each forced
/// through its full round budget.
ScenarioSpec long_running_spec() {
  ScenarioSpec spec = small_spec(5000);
  spec.campaign.rounds = 100'000;
  spec.campaign.stop_when_all_decided = false;
  return spec;
}

std::string local_scenario_bytes(const ScenarioSpec& spec) {
  Executor executor(2);
  return campaign_result_to_json(run_scenario(spec, executor)).dump();
}

std::string local_sweep_bytes(const SweepSpec& sweep) {
  Executor executor(2);
  return campaign_results_to_json(run_sweep(sweep, executor)).dump();
}

std::vector<std::pair<std::string, std::string>> corpus_documents() {
  std::vector<std::pair<std::string, std::string>> documents;
  const std::filesystem::path corpus =
      std::filesystem::path(HOVAL_SOURCE_DIR) / "examples" / "scenarios";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(corpus))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    documents.emplace_back(file.filename().string(), text.str());
  }
  return documents;
}

/// Polls `predicate` until it holds or `deadline` elapses.
bool eventually(const std::function<bool()>& predicate,
                std::chrono::seconds deadline = std::chrono::seconds(30)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

// --- byte identity ---------------------------------------------------------

TEST(Daemon, ScenarioResultMatchesLocalRunByteForByte) {
  ServerFixture fixture({});
  const ScenarioSpec spec = small_spec(50);
  ServiceClient client(fixture.address());
  const JobOutcome outcome = client.submit_scenario(spec.to_json());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_FALSE(outcome.cache_hit);
  EXPECT_EQ(outcome.result.dump(), local_scenario_bytes(spec));
}

TEST(Daemon, SweepResultMatchesLocalRunByteForByte) {
  ServerFixture fixture({});
  SweepSpec sweep;
  sweep.base = small_spec(20);
  sweep.axes.push_back(
      SweepAxis::single("algorithm.params.alpha", {Json(0), Json(1)}));
  ServiceClient client(fixture.address());
  const JobOutcome outcome = client.submit_sweep(sweep.to_json());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_TRUE(outcome.result.is_array());
  EXPECT_EQ(outcome.result.items().size(), 2u);
  EXPECT_EQ(outcome.result.dump(), local_sweep_bytes(sweep));
}

TEST(Daemon, RefinedSweepMatchesLocalRunByteForByteAndRepeatsFromCache) {
  // The refinement driver runs server-side through the same submit/result
  // protocol; coordinate-derived seeds make the served document identical
  // to a local run_refined_sweep(), and the refine block is part of the
  // cache key, so the repeat is a hit.
  ServerFixture fixture({});
  SweepSpec sweep;
  sweep.base = small_spec(30);
  sweep.base.algorithm = component("utea", {{"n", 6}, {"alpha", 1}});
  sweep.base.values = component("unanimous", {{"value", 1}});
  sweep.axes.push_back(
      SweepAxis::single("campaign.rounds", {Json(1), Json(8)}));
  sweep.refine.enabled = true;
  sweep.refine.monitor = MonitorSelector::parse("termination");

  ServiceClient client(fixture.address());
  const JobOutcome first = client.submit_sweep(sweep.to_json());
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  Executor executor(2);
  const std::string local =
      run_refined_sweep(sweep, &executor).to_json().dump();
  EXPECT_EQ(first.result.dump(), local);
  const RefinedSweepResult refined =
      RefinedSweepResult::from_json(first.result);
  EXPECT_GT(refined.points.size(), 2u);  // the step forced subdivision
  EXPECT_GT(refined.runs_saved(), 0);

  const JobOutcome repeat = client.submit_sweep(sweep.to_json());
  ASSERT_TRUE(repeat.ok) << repeat.error;
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.result.dump(), local);
}

TEST(Daemon, CorpusScenariosMatchLocalRunsAndRepeatFromCache) {
  ServerFixture fixture({});
  ServiceClient client(fixture.address());
  for (const auto& [name, text] : corpus_documents()) {
    if (name.rfind("sweep_", 0) == 0 ||
        name.find("refine") != std::string::npos)
      continue;  // sweep documents; covered by the sweep/refine tests above
    // Trim the corpus budgets so the whole matrix stays fast; the
    // submitted document and the local run share the exact same spec.
    ScenarioSpec spec = ScenarioSpec::from_json_text(text);
    spec.campaign.runs = 10;
    spec.campaign.adaptive.enabled = false;
    spec.campaign.keep_traces = TraceRetention::kNone;

    const JobOutcome first = client.submit_scenario(spec.to_json());
    ASSERT_TRUE(first.ok) << name << ": " << first.error;
    EXPECT_FALSE(first.cache_hit) << name;
    EXPECT_EQ(first.result.dump(), local_scenario_bytes(spec)) << name;

    const JobOutcome repeat = client.submit_scenario(spec.to_json());
    ASSERT_TRUE(repeat.ok) << name << ": " << repeat.error;
    EXPECT_TRUE(repeat.cache_hit) << name;
    EXPECT_EQ(repeat.result.dump(), first.result.dump()) << name;
  }
  EXPECT_GT(fixture.server().stats().cache_hits, 0u);
}

TEST(Daemon, TcpLoopbackServesTheSameBytes) {
  ServerConfig config;
  config.address = "127.0.0.1:0";  // ephemeral port, reported by address()
  ServerFixture fixture(std::move(config));
  const ScenarioSpec spec = small_spec(25);
  ServiceClient client(fixture.address());
  const JobOutcome outcome = client.submit_scenario(spec.to_json());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result.dump(), local_scenario_bytes(spec));
}

// --- the cache -------------------------------------------------------------

TEST(Daemon, RepeatSweepIsServedFromCacheByteIdentically) {
  ServerFixture fixture({});
  SweepSpec sweep;
  sweep.base = small_spec(15);
  sweep.axes.push_back(
      SweepAxis::single("algorithm.params.alpha", {Json(0), Json(1)}));
  ServiceClient client(fixture.address());
  const JobOutcome first = client.submit_sweep(sweep.to_json());
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  const JobOutcome repeat = client.submit_sweep(sweep.to_json());
  ASSERT_TRUE(repeat.ok) << repeat.error;
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.result.dump(), first.result.dump());
}

TEST(Daemon, DifferentSeedNeverHitsTheCache) {
  // The served bytes can coincide for a benign scenario (every seed
  // decides in the same round); what must never happen is the cache
  // aliasing the two seeds — both submissions execute.
  ServerFixture fixture({});
  ServiceClient client(fixture.address());
  const JobOutcome first = client.submit_scenario(small_spec(10, 1).to_json());
  ASSERT_TRUE(first.ok) << first.error;
  const JobOutcome other = client.submit_scenario(small_spec(10, 2).to_json());
  ASSERT_TRUE(other.ok) << other.error;
  EXPECT_FALSE(other.cache_hit);
  EXPECT_EQ(fixture.server().stats().cache_hits, 0u);
  EXPECT_EQ(fixture.server().stats().cache_misses, 2u);
}

TEST(Daemon, ParamAuthoringOrderHitsTheSameCacheEntry) {
  // The canonical-bytes contract end to end: the same experiment written
  // with params in a different order is the same cache entry.
  ServerFixture fixture({});
  ServiceClient client(fixture.address());
  const Json a = Json::parse(R"({
    "algorithm": {"name": "ate", "params": {"n": 9, "alpha": 1}},
    "campaign": {"runs": 10, "seed": 42}
  })");
  const Json b = Json::parse(R"({
    "campaign": {"seed": 42, "runs": 10},
    "algorithm": {"params": {"alpha": 1, "n": 9}, "name": "ate"}
  })");
  const JobOutcome first = client.submit_scenario(a);
  ASSERT_TRUE(first.ok) << first.error;
  const JobOutcome repeat = client.submit_scenario(b);
  ASSERT_TRUE(repeat.ok) << repeat.error;
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.result.dump(), first.result.dump());
}

TEST(Daemon, PoolAndBatchSizeKnobsHitTheSameCacheEntry) {
  // Results are byte-identical at any thread count or batch size, so a
  // resubmission that differs only in those knobs must be a hit — not a
  // second execution stored under a second key.
  ServerFixture fixture({});
  ServiceClient client(fixture.address());
  const ScenarioSpec spec = small_spec(10);
  const JobOutcome first = client.submit_scenario(spec.to_json());
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  ScenarioSpec eight_threads = spec;
  eight_threads.campaign.threads = 8;
  eight_threads.campaign.batch_size = 3;
  const JobOutcome repeat = client.submit_scenario(eight_threads.to_json());
  ASSERT_TRUE(repeat.ok) << repeat.error;
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.result.dump(), first.result.dump());
  EXPECT_EQ(fixture.server().stats().cache_misses, 1u);
}

TEST(Daemon, TinyCacheBudgetNeverHitsButStillServes) {
  ServerConfig config;
  config.cache_bytes = 8;  // smaller than any key: nothing is cacheable
  ServerFixture fixture(std::move(config));
  ServiceClient client(fixture.address());
  const ScenarioSpec spec = small_spec(10);
  const JobOutcome first = client.submit_scenario(spec.to_json());
  ASSERT_TRUE(first.ok) << first.error;
  const JobOutcome repeat = client.submit_scenario(spec.to_json());
  ASSERT_TRUE(repeat.ok) << repeat.error;
  EXPECT_FALSE(repeat.cache_hit);
  // Determinism still makes the recomputed bytes identical.
  EXPECT_EQ(repeat.result.dump(), first.result.dump());
  EXPECT_EQ(fixture.server().stats().cache_hits, 0u);
}

// --- progress and errors ---------------------------------------------------

/// Collects a job's progress frames and checks the invariants every kind
/// of job keeps: completed never decreases and never exceeds total, and
/// total never shrinks (a refined sweep's grows per generation).
struct ProgressLog {
  long long last_completed = -1;
  long long last_total = 0;
  int frames = 0;

  ClientProgressFn observer() {
    return [this](long long completed, long long total) {
      ++frames;
      EXPECT_GE(completed, last_completed);
      EXPECT_LE(completed, total);
      EXPECT_GE(total, last_total);
      last_completed = completed;
      last_total = total;
    };
  }
};

TEST(Daemon, ProgressFramesStreamMonotonically) {
  ServerFixture fixture({});
  ServiceClient client(fixture.address());
  const ScenarioSpec spec = small_spec(50'000);
  ProgressLog log;
  const JobOutcome outcome =
      client.submit_scenario(spec.to_json(), log.observer());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_GE(log.frames, 1);
  EXPECT_EQ(log.last_total, 50'000);
  EXPECT_EQ(outcome.result.dump(), local_scenario_bytes(spec));
}

TEST(Daemon, FixedSweepProgressFramesReachTheSummedRunCaps) {
  ServerFixture fixture({});
  ServiceClient client(fixture.address());
  SweepSpec sweep;
  sweep.base = small_spec(20'000);
  sweep.axes.push_back(
      SweepAxis::single("algorithm.params.alpha", {Json(0), Json(1)}));
  ProgressLog log;
  const JobOutcome outcome =
      client.submit_sweep(sweep.to_json(), log.observer());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_GE(log.frames, 1);
  EXPECT_EQ(log.last_total, 2 * 20'000);
  EXPECT_EQ(outcome.result.dump(), local_sweep_bytes(sweep));
}

TEST(Daemon, RefinedSweepProgressFramesNeverShrinkTheirTotal) {
  ServerFixture fixture({});
  ServiceClient client(fixture.address());
  SweepSpec sweep;
  sweep.base = small_spec(2000);
  sweep.base.algorithm = component("utea", {{"n", 6}, {"alpha", 1}});
  sweep.base.values = component("unanimous", {{"value", 1}});
  sweep.axes.push_back(
      SweepAxis::single("campaign.rounds", {Json(1), Json(16)}));
  sweep.refine.enabled = true;
  sweep.refine.monitor = MonitorSelector::parse("termination");
  ProgressLog log;
  const JobOutcome outcome =
      client.submit_sweep(sweep.to_json(), log.observer());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_GE(log.frames, 1);
  const RefinedSweepResult refined =
      RefinedSweepResult::from_json(outcome.result);
  EXPECT_GT(refined.generations, 1);
  EXPECT_LE(log.last_total,
            static_cast<long long>(refined.points.size()) * 2000);
  Executor executor(2);
  EXPECT_EQ(outcome.result.dump(),
            run_refined_sweep(sweep, &executor).to_json().dump());
}

TEST(Daemon, BadSpecAnswersAnErrorAndTheConnectionSurvives) {
  ServerFixture fixture({});
  ServiceClient client(fixture.address());
  Json bad = Json::object();
  bad.set("algorithm", Json("no-such-algorithm"));
  const JobOutcome outcome = client.submit_scenario(bad);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("no-such-algorithm"), std::string::npos)
      << outcome.error;
  // Same connection keeps working.
  const JobOutcome good = client.submit_scenario(small_spec(5).to_json());
  EXPECT_TRUE(good.ok) << good.error;
  EXPECT_EQ(fixture.server().stats().jobs_failed, 1u);
}

TEST(Daemon, GarbageFrameGetsAConnectionErrorNotAMisparse) {
  ServerFixture fixture({});
  const int fd = connect_socket(fixture.address());
  dispatch::FrameDecoder decoder;
  ASSERT_TRUE(dispatch::write_frame(fd, encode_hello()));
  const auto hello = dispatch::read_frame(fd, decoder);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(parse_server_message(*hello).type, ServerMessage::Type::kHello);

  ASSERT_TRUE(dispatch::write_frame(fd, "this is not a protocol message"));
  const auto reply = dispatch::read_frame(fd, decoder);
  ASSERT_TRUE(reply.has_value());
  const ServerMessage error = parse_server_message(*reply);
  EXPECT_EQ(error.type, ServerMessage::Type::kError);
  EXPECT_EQ(error.id, -1);  // connection-level
  // The server hangs up after the connection-level error.
  EXPECT_FALSE(dispatch::read_frame(fd, decoder).has_value());
  ::close(fd);
}

TEST(Daemon, PreviousProtocolVersionIsRefusedAtHello) {
  // A version-2 peer would misread the counted sample sets of version-3
  // result documents, so the daemon refuses it before any job runs.
  ServerFixture fixture({});
  const int fd = connect_socket(fixture.address());
  dispatch::FrameDecoder decoder;
  ASSERT_TRUE(dispatch::write_frame(fd, R"({"type": "hello", "version": 2})"));
  const auto reply = dispatch::read_frame(fd, decoder);
  ASSERT_TRUE(reply.has_value());
  const ServerMessage error = parse_server_message(*reply);
  EXPECT_EQ(error.type, ServerMessage::Type::kError);
  EXPECT_NE(error.what.find("protocol version mismatch"), std::string::npos)
      << error.what;
  EXPECT_FALSE(dispatch::read_frame(fd, decoder).has_value());
  ::close(fd);
}

// --- concurrency and cancellation ------------------------------------------

TEST(Daemon, ConcurrentClientsAllGetLocalIdenticalBytes) {
  ServerConfig config;
  config.max_active_jobs = 2;  // some clients must queue: scheduler in play
  ServerFixture fixture(std::move(config));
  constexpr int kClients = 4;
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < kClients; ++i)
    specs.push_back(small_spec(30 + i, /*seed=*/100 + i));
  std::vector<std::string> served(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      try {
        ServiceClient client(fixture.address());
        const JobOutcome outcome = client.submit_scenario(specs[i].to_json());
        if (outcome.ok)
          served[i] = outcome.result.dump();
        else
          errors[i] = outcome.error;
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(errors[i].empty()) << "client " << i << ": " << errors[i];
    EXPECT_EQ(served[i], local_scenario_bytes(specs[i])) << "client " << i;
  }
}

TEST(Daemon, DisconnectCancelsInFlightJobWithoutDisturbingOthers) {
  ServerConfig config;
  config.max_active_jobs = 2;
  ServerFixture fixture(std::move(config));

  // Client A parks a job big enough to still be running when it vanishes.
  auto victim = std::make_unique<ServiceClient>(fixture.address());
  victim->submit(long_running_spec().to_json(), /*sweep=*/false);
  ASSERT_TRUE(eventually(
      [&] { return fixture.server().stats().jobs_submitted >= 1; }));

  // Client B queues a small job behind it (the pool drains jobs in
  // submission order, so it cannot finish while A's campaign hogs the
  // workers)...
  ServiceClient bystander(fixture.address());
  const ScenarioSpec small = small_spec(10);
  const int bystander_id =
      bystander.submit(small.to_json(), /*sweep=*/false);

  // ...then A hangs up.  The server must cancel A's in-flight campaign
  // (reclaiming the workers) rather than letting it run to completion —
  // B's job would otherwise wait out the full 5000-run budget.
  victim->close();
  EXPECT_TRUE(eventually(
      [&] { return fixture.server().stats().jobs_cancelled >= 1; }));

  // B's job is untouched by its neighbour's demise: it completes with
  // exactly the local bytes.
  const JobOutcome outcome = bystander.collect(bystander_id);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result.dump(), local_scenario_bytes(small));

  const JobOutcome again = bystander.submit_scenario(small.to_json());
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_TRUE(again.cache_hit);
}

TEST(Daemon, ExplicitCancelAnswersAnError) {
  ServerFixture fixture({});
  ServiceClient client(fixture.address());
  const int id =
      client.submit(long_running_spec().to_json(), /*sweep=*/false);
  client.cancel(id);
  const JobOutcome outcome = client.collect(id);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("cancel"), std::string::npos) << outcome.error;
  EXPECT_TRUE(eventually(
      [&] { return fixture.server().stats().jobs_cancelled >= 1; }));
  // The connection survives a cancel.
  const JobOutcome next = client.submit_scenario(small_spec(5).to_json());
  EXPECT_TRUE(next.ok) << next.error;
}

TEST(Daemon, StopWithBusyClientsDrainsCleanly) {
  auto fixture = std::make_unique<ServerFixture>(ServerConfig{});
  ServiceClient client(fixture->address());
  client.submit(long_running_spec().to_json(), /*sweep=*/false);
  ASSERT_TRUE(eventually(
      [&] { return fixture->server().stats().jobs_submitted >= 1; }));
  // ~ServerFixture stops the server: in-flight campaigns are cancelled
  // and drained; this must not hang or crash.
  fixture.reset();
}

// --- load shedding and deadlines -------------------------------------------

TEST(Daemon, BusySubmitIsShedWithARetryHintAndRetrySucceeds) {
  ServerConfig config;
  config.max_active_jobs = 1;
  config.max_pending_jobs = 1;
  config.busy_retry_ms = 123;
  ServerFixture fixture(std::move(config));

  // One long job active, one queued: the admission queue is now full.
  ServiceClient hog(fixture.address());
  hog.submit(long_running_spec().to_json(), /*sweep=*/false);
  ScenarioSpec queued = long_running_spec();
  queued.campaign.seed = 777;
  hog.submit(queued.to_json(), /*sweep=*/false);
  ASSERT_TRUE(eventually(
      [&] { return fixture.server().stats().jobs_submitted >= 2; }));

  // A no-retry client sees the shed verbatim: a `busy` error frame with
  // the configured hint, not a hang and not a grown queue.
  const ScenarioSpec small = small_spec(10);
  {
    ServiceClient once(fixture.address());
    const int id = once.submit(small.to_json(), /*sweep=*/false);
    const JobOutcome shed = once.collect(id);
    EXPECT_FALSE(shed.ok);
    EXPECT_NE(shed.error.find("busy"), std::string::npos) << shed.error;
    EXPECT_EQ(shed.retry_after_ms, 123);
  }
  EXPECT_GE(fixture.server().stats().jobs_shed, 1u);

  // A retrying client rides the hint: it keeps getting shed while the
  // queue is full, and completes with local-identical bytes once the hog
  // disconnects (cancelling its jobs and draining the queue).
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff_ms = 10;
  ServiceClient patient(fixture.address(), policy);
  std::thread unblock([&] {
    ASSERT_TRUE(eventually(
        [&] { return fixture.server().stats().jobs_shed >= 2; }));
    hog.close();
  });
  const JobOutcome outcome = patient.submit_scenario(small.to_json());
  unblock.join();
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result.dump(), local_scenario_bytes(small));
  EXPECT_GT(patient.retries(), 0u);
}

TEST(Daemon, HelloDeadlineDropsASilentConnection) {
  ServerConfig config;
  config.hello_timeout_ms = 100;
  ServerFixture fixture(std::move(config));
  const int fd = connect_socket(fixture.address());
  // Never says hello: the server must hang up on its own.
  dispatch::FrameDecoder decoder;
  EXPECT_FALSE(dispatch::read_frame(fd, decoder).has_value());
  EXPECT_TRUE(eventually(
      [&] { return fixture.server().stats().clients_timed_out >= 1; }));
  ::close(fd);
}

TEST(Daemon, IdleDeadlineDropsJoblessClientsButSparesBusyOnes) {
  ServerConfig config;
  config.idle_timeout_ms = 150;
  ServerFixture fixture(std::move(config));

  // The busy client's long job exempts it from the idle deadline even
  // though it sends nothing while waiting.
  ServiceClient busy(fixture.address());
  const int id = busy.submit(long_running_spec().to_json(), /*sweep=*/false);
  ASSERT_TRUE(eventually(
      [&] { return fixture.server().stats().jobs_submitted >= 1; }));

  ServiceClient idle(fixture.address());
  EXPECT_TRUE(eventually(
      [&] { return fixture.server().stats().clients_timed_out >= 1; }));
  EXPECT_EQ(fixture.server().stats().clients_timed_out, 1u);

  // The busy client's connection still works end to end.
  busy.cancel(id);
  const JobOutcome cancelled = busy.collect(id);
  EXPECT_FALSE(cancelled.ok);
  EXPECT_NE(cancelled.error.find("cancel"), std::string::npos)
      << cancelled.error;
}

TEST(Daemon, ClientHelloDeadlineSurfacesAsACleanRetryableError) {
  // A listener that accepts but never speaks: without the deadline the
  // client constructor would block forever on the greeting.
  const ListenSocket mute = listen_socket(unique_socket_path(), 4);

  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_ms = 1;
  policy.hello_timeout_ms = 100;
  int retries_seen = 0;
  policy.on_retry = [&](int, int, int, const std::string&) { ++retries_seen; };
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(ServiceClient(mute.address(), policy), ServiceError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 10'000) << "deadline did not bound the hello";
  EXPECT_EQ(retries_seen, 1);  // attempt 1 failed, was retried, attempt 2 threw
}

// --- chaos: connection kills and outbox overflow ---------------------------

/// A byte-forwarding proxy in front of the daemon that kills its first
/// connection after relaying `kill_after` server-to-client bytes, then
/// relays every later connection untouched — a deterministic mid-job
/// connection loss for the retry path to absorb.
class KillingProxy {
 public:
  KillingProxy(std::string target, long long kill_after)
      : target_(std::move(target)),
        kill_after_(kill_after),
        listener_(listen_socket(unique_socket_path(), 4)) {
    acceptor_ = std::thread([this] { accept_loop(); });
  }

  ~KillingProxy() {
    stopping_.store(true);
    // Wake the blocking accept with one last throwaway connection.
    try {
      ::close(connect_socket(listener_.address()));
    } catch (const ServiceError&) {
    }
    acceptor_.join();
    for (auto& pump : pumps_) pump.join();
  }

  const std::string& address() const { return listener_.address(); }
  int connections() const { return connections_.load(); }

 private:
  void accept_loop() {
    for (;;) {
      const int client_fd = ::accept(listener_.fd(), nullptr, nullptr);
      if (client_fd < 0) return;
      if (stopping_.load()) {
        ::close(client_fd);
        return;
      }
      const int server_fd = connect_socket(target_);
      const int index = connections_.fetch_add(1);
      // Only the first connection is killed; later ones relay untouched.
      auto budget = std::make_shared<std::atomic<long long>>(
          index == 0 ? kill_after_
                     : std::numeric_limits<long long>::max());
      auto severed = std::make_shared<std::atomic<bool>>(false);
      pumps_.emplace_back(
          [=] { pump(client_fd, server_fd, nullptr, severed); });
      pumps_.emplace_back(
          [=] { pump(server_fd, client_fd, budget, severed); });
    }
  }

  /// Relays from `from` to `to`; when `budget` is given, charges it per
  /// byte and severs both directions once it runs dry.  The fds are only
  /// shut down, never closed, so the paired pump can never race a closed
  /// descriptor; a test leaks a handful of fds, which is fine.
  static void pump(int from, int to,
                   std::shared_ptr<std::atomic<long long>> budget,
                   std::shared_ptr<std::atomic<bool>> severed) {
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::read(from, buffer, sizeof(buffer));
      if (n <= 0 || severed->load()) break;
      if (budget && budget->fetch_sub(n) - n < 0) {
        severed->store(true);
        break;
      }
      std::size_t written = 0;
      while (written < static_cast<std::size_t>(n)) {
        const ssize_t m = ::write(to, buffer + written,
                                  static_cast<std::size_t>(n) - written);
        if (m <= 0) {
          severed->store(true);
          break;
        }
        written += static_cast<std::size_t>(m);
      }
      if (severed->load()) break;
    }
    ::shutdown(from, SHUT_RDWR);
    ::shutdown(to, SHUT_RDWR);
  }

  std::string target_;
  long long kill_after_;
  ListenSocket listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> connections_{0};
  std::thread acceptor_;
  std::vector<std::thread> pumps_;
};

TEST(Daemon, MidJobConnectionKillIsRetriedToLocalIdenticalBytes) {
  ServerFixture fixture({});
  // Kill connection #1 after ~600 server-to-client bytes: past the hello
  // reply and the first progress frames, before the result document.
  KillingProxy proxy(fixture.address(), 600);

  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 10;
  ServiceClient client(proxy.address(), policy);
  const ScenarioSpec spec = small_spec(50'000);
  std::atomic<int> progress_frames{0};
  const JobOutcome outcome = client.submit_scenario(
      spec.to_json(), [&](long long, long long) { ++progress_frames; });

  // The kill forced at least one reconnect+resubmission, and the retried
  // job's bytes are indistinguishable from a fault-free local run (served
  // from cache when the first attempt's campaign finished server-side).
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.result.dump(), local_scenario_bytes(spec));
  EXPECT_GT(client.retries(), 0u);
  EXPECT_GE(proxy.connections(), 2);
}

TEST(Daemon, OutboxOverflowDropsOnlyTheUnreadingClient) {
  ServerConfig config;
  config.max_outbox_bytes = 32 * 1024;
  ServerFixture fixture(std::move(config));

  // Prime the cache so repeat submits are answered instantly — the
  // offender below can then flood the server with cheap result traffic.
  const ScenarioSpec spec = small_spec(10);
  ServiceClient bystander(fixture.address());
  ASSERT_TRUE(bystander.submit_scenario(spec.to_json()).ok);

  // The offender submits the cached spec in a tight loop and never reads a
  // reply: results pile up in its outbox until the kernel buffer and then
  // the byte cap fill.
  const int offender = connect_socket(fixture.address());
  dispatch::FrameDecoder decoder;
  ASSERT_TRUE(dispatch::write_frame(offender, encode_hello()));
  ASSERT_TRUE(dispatch::read_frame(offender, decoder).has_value());
  const Json spec_json = spec.to_json();
  for (int i = 0; i < 2000; ++i) {
    if (!dispatch::write_frame(
            offender, encode_submit(i, false, spec_json, false)))
      break;  // the server already dropped us mid-flood — success
    if (fixture.server().stats().clients_overflowed > 0) break;
  }
  EXPECT_TRUE(eventually(
      [&] { return fixture.server().stats().clients_overflowed >= 1; }));
  ::close(offender);

  // The neighbour is untouched: same connection, same bytes as local.
  const JobOutcome after = bystander.submit_scenario(spec.to_json());
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_TRUE(after.cache_hit);
  EXPECT_EQ(after.result.dump(), local_scenario_bytes(spec));
}

// --- one adopted connection (hovald --stdio, dispatch backends) -----------

/// A Server adopting one end of a socketpair, run on its own thread; the
/// test speaks the protocol over the other end.  run() must return by
/// itself once the peer is gone; the destructor stops a server a test
/// left running.
class AdoptedServer {
 public:
  AdoptedServer() {
    int ends[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ends), 0);
    peer_ = ends[0];
    ServerConfig config;
    config.executor_threads = 2;
    server_ = std::make_unique<Server>(std::move(config), ends[1]);
    thread_ = std::thread([this] {
      server_->run();
      returned_.store(true);
    });
  }
  ~AdoptedServer() {
    server_->stop();
    thread_.join();
    close_peer();
  }

  int peer() const { return peer_; }
  void close_peer() {
    if (peer_ >= 0) ::close(peer_);
    peer_ = -1;
  }
  bool returned() const { return returned_.load(); }
  Server& server() { return *server_; }

  /// The server's next message, or nullopt once it has hung up.
  std::optional<ServerMessage> next() {
    const auto frame = dispatch::read_frame(peer_, decoder_);
    if (!frame) return std::nullopt;
    return parse_server_message(*frame);
  }
  /// Sends hello and checks the server's answer.
  void greet() {
    ASSERT_TRUE(dispatch::write_frame(peer_, encode_hello()));
    const auto hello = next();
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->type, ServerMessage::Type::kHello);
    EXPECT_EQ(hello->version, kProtocolVersion);
  }

 private:
  int peer_ = -1;
  dispatch::FrameDecoder decoder_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  std::atomic<bool> returned_{false};
};

TEST(AdoptedSocket, ServesResultBytesEqualToTheLocalRun) {
  AdoptedServer adopted;
  EXPECT_TRUE(adopted.server().address().empty());
  adopted.greet();
  const ScenarioSpec spec = small_spec(40);
  ASSERT_TRUE(dispatch::write_frame(
      adopted.peer(), encode_submit(5, false, spec.to_json(), false)));
  const auto reply = adopted.next();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, ServerMessage::Type::kResult) << reply->what;
  EXPECT_EQ(reply->id, 5);
  EXPECT_EQ(reply->result.dump(), local_scenario_bytes(spec));

  adopted.close_peer();
  EXPECT_TRUE(eventually([&] { return adopted.returned(); }));
}

TEST(AdoptedSocket, UnresolvableSpecGetsAnErrorAndTheNextSubmitIsServed) {
  AdoptedServer adopted;
  adopted.greet();
  Json bogus = Json::object();
  bogus.set("algorithm", Json::object());
  ASSERT_TRUE(dispatch::write_frame(adopted.peer(),
                                    encode_submit(1, false, bogus, false)));
  const auto error = adopted.next();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->type, ServerMessage::Type::kError);
  EXPECT_EQ(error->id, 1);
  EXPECT_FALSE(error->what.empty());
  EXPECT_EQ(error->retry_after_ms, -1);  // deterministic, not retryable

  const ScenarioSpec spec = small_spec(10);
  ASSERT_TRUE(dispatch::write_frame(
      adopted.peer(), encode_submit(2, false, spec.to_json(), false)));
  const auto result = adopted.next();
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->type, ServerMessage::Type::kResult) << result->what;
  EXPECT_EQ(result->id, 2);
  EXPECT_EQ(result->result.dump(), local_scenario_bytes(spec));
  EXPECT_FALSE(adopted.returned());
}

TEST(AdoptedSocket, GarbageOrTruncatedFrameGetsAConnectionErrorAndRunReturns) {
  const std::string truncated = dispatch::encode_frame(encode_hello());
  const std::vector<std::pair<std::string, std::string>> inputs = {
      {"garbage payload", dispatch::encode_frame("not a protocol message")},
      {"garbage bytes", "garbage!!"},  // length prefix above the frame cap
      {"truncated frame", truncated.substr(0, truncated.size() / 2)},
  };
  for (const auto& [name, bytes] : inputs) {
    SCOPED_TRACE(name);
    AdoptedServer adopted;
    ASSERT_TRUE(dispatch::write_all(adopted.peer(), bytes.data(), bytes.size()));
    // The truncation only shows once the peer stops sending.
    if (name == "truncated frame") ::shutdown(adopted.peer(), SHUT_WR);
    const auto error = adopted.next();
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->type, ServerMessage::Type::kError);
    EXPECT_EQ(error->id, -1);  // connection-level
    EXPECT_FALSE(adopted.next().has_value());  // then the server hangs up
    EXPECT_TRUE(eventually([&] { return adopted.returned(); }));
  }
}

TEST(AdoptedSocket, PeerClosingMidJobCancelsItAndRunReturns) {
  AdoptedServer adopted;
  adopted.greet();
  ASSERT_TRUE(dispatch::write_frame(
      adopted.peer(),
      encode_submit(0, false, long_running_spec().to_json(), false)));
  ASSERT_TRUE(eventually(
      [&] { return adopted.server().stats().jobs_submitted >= 1; }));
  adopted.close_peer();
  EXPECT_TRUE(eventually([&] { return adopted.returned(); }));
  EXPECT_EQ(adopted.server().stats().jobs_cancelled, 1u);
  EXPECT_EQ(adopted.server().stats().jobs_completed, 0u);
}

}  // namespace
}  // namespace hoval::service
