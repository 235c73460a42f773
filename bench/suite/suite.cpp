#include "suite.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sched.h>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <unistd.h>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace suite {

// --- workload files -----------------------------------------------------------

namespace {

/// Separates the per-job seed stream from any other use of --seed.
constexpr std::uint64_t kJobSeedStream = 0x5EED10B5;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

int Workload::knob(const std::string& key) const {
  const Json* value = load.find(key);
  if (value == nullptr)
    throw std::runtime_error("workload " + name + ": missing load knob \"" +
                             key + "\"");
  return value->as_int();
}

Workload load_workload(const std::string& name) {
  const std::string path =
      std::string(HOVAL_SUITE_DIR) + "/workloads/" + name + ".json";
  const Json doc = Json::parse(read_file(path));
  Workload workload;
  workload.name = doc.at("name").as_string();
  if (workload.name != name)
    throw std::runtime_error(path + ": \"name\" is \"" + workload.name + "\"");
  workload.description = doc.at("description").as_string();
  workload.load = doc.at("load");
  for (const auto& member : doc.members())
    if (member.first != "name" && member.first != "description" &&
        member.first != "load" && member.first != "scenario" &&
        member.first != "sweep")
      throw std::runtime_error(path + ": unknown key \"" + member.first + "\"");
  if (const Json* sweep = doc.find("sweep")) {
    workload.is_sweep = true;
    workload.sweep = hoval::SweepSpec::from_json(*sweep);
  } else {
    workload.scenario = hoval::ScenarioSpec::from_json(doc.at("scenario"));
  }
  // Completion is detected by the final progress call reporting
  // completed == total, which only a fixed budget guarantees.
  const hoval::CampaignKnobs& knobs = workload.is_sweep
                                          ? workload.sweep.base.campaign
                                          : workload.scenario.campaign;
  if (knobs.adaptive.enabled)
    throw std::runtime_error(path + ": workloads must use a fixed run budget");
  return workload;
}

hoval::ScenarioSpec scenario_job(const Workload& workload, std::uint64_t seed,
                                 std::uint64_t index) {
  hoval::ScenarioSpec spec = workload.scenario;
  spec.campaign.seed = hoval::mix_seed(seed, index, kJobSeedStream);
  return spec;
}

hoval::SweepSpec sweep_job(const Workload& workload, std::uint64_t seed,
                           std::uint64_t index) {
  hoval::SweepSpec spec = workload.sweep;
  spec.base.campaign.seed = hoval::mix_seed(seed, index, kJobSeedStream);
  return spec;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- statistics ---------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * fraction;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: after execve the latter still
  // reports the pre-exec image's peak (e.g. the Python launcher's).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- digests ------------------------------------------------------------------

void JobDigest::record(std::uint64_t index, const std::string& text) {
  if (index >= texts_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  texts_[index] = text;
}

std::string JobDigest::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t state = hoval::kFnv1a64OffsetBasis;
  std::size_t jobs = 0;
  for (const auto& text : texts_) {
    if (!text) break;
    state = hoval::fnv1a64(*text, state);
    ++jobs;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(state));
  return std::string("fnv1a64=") + hex + " over " + std::to_string(jobs) +
         " jobs";
}

// --- the report ---------------------------------------------------------------

void Report::add(std::string name, std::string unit, double value) {
  if (!std::isfinite(value))
    throw std::runtime_error("metric " + name + " is not finite");
  metrics.push_back(Metric{std::move(name), std::move(unit), value});
}

void Report::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

Json Report::metrics_json() const {
  Json values = Json::object();
  for (const Metric& metric : metrics) {
    Json entry = Json::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    values.set(metric.name, std::move(entry));
  }
  return values;
}

int Report::print(const Workload& workload, const Options& options) const {
  std::cout << "bench_suite " << workload.name << ": seed " << options.seed
            << ", " << (options.trace ? "per-layer" : "end-to-end") << " run"
            << (options.smoke ? " (smoke)" : "") << "\n";
  for (const std::string& line : lines) std::cout << "  " << line << "\n";
  std::cout << "  " << failed << " of " << attempted << " jobs failed a gate\n";
  for (const Metric& metric : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.6g", metric.value);
    std::cout << "  " << metric.name
              << std::string(metric.name.size() < 34 ? 34 - metric.name.size()
                                                     : 1,
                             ' ')
              << value << " " << metric.unit << "\n";
  }
  for (const std::string& failure : failures)
    std::cout << "  FAILED: " << failure << "\n";

  Json result = Json::object();
  result.set("correct", correct());
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", metrics_json());
  std::cout << result.dump() << std::endl;
  return correct() ? 0 : 1;
}

// --- campaigns in flight ------------------------------------------------------

int CampaignLoop::submit(const hoval::ScenarioSpec& spec,
                         const Decorator& decorate) {
  const int ticket = next_ticket_++;
  Flight flight;
  flight.submit_ns = now_ns();
  hoval::ResolvedScenario resolved = hoval::resolve_scenario(spec);
  resolved.config.progress = [state = state_,
                              ticket](const hoval::CampaignProgress& progress) {
    if (progress.completed == progress.total) {
      const std::int64_t stamp = now_ns();
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->done.emplace_back(ticket, stamp);
      }
      state->cv.notify_one();
    }
    return true;
  };
  if (decorate) decorate(ticket, resolved);
  flight.handle = executor_.submit(
      std::move(resolved.values), std::move(resolved.instance),
      std::move(resolved.adversary), std::move(resolved.config));
  flights_.emplace(ticket, std::move(flight));
  return ticket;
}

CampaignLoop::Completed CampaignLoop::next() {
  Completed completed;
  {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return !state_->done.empty(); });
    std::tie(completed.ticket, completed.end_ns) = state_->done.front();
    state_->done.pop_front();
  }
  const auto it = flights_.find(completed.ticket);
  completed.submit_ns = it->second.submit_ns;
  completed.result = it->second.handle.take();
  flights_.erase(it);
  return completed;
}

// --- the served path ----------------------------------------------------------

namespace {

std::string fresh_socket_path() {
  static std::atomic<int> counter{0};
  return "./.bench_suite." + std::to_string(getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

}  // namespace

ServedHarness::ServedHarness(int executor_threads) {
  hoval::service::ServerConfig config;
  config.address = fresh_socket_path();
  config.executor_threads = executor_threads;
  server_ = std::make_unique<hoval::service::Server>(std::move(config));
  loop_ = std::thread([this] {
    try {
      server_->run();
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      error_ = e.what();
    }
  });
}

ServedHarness::~ServedHarness() {
  server_->stop();
  loop_.join();
}

std::string ServedHarness::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

}  // namespace suite
