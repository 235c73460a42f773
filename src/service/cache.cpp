#include "service/cache.hpp"

#include <algorithm>

#include "scenario/job.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace hoval::service {

namespace {

/// Drops the campaign knobs that cannot change a result byte — the pool
/// size and the run batch size (executor.hpp guarantees byte-identical
/// results at any of either) — from a scenario document, so submissions
/// that differ only in them share one cache entry.
Json without_execution_knobs(Json scenario) {
  if (Json* campaign = scenario.find("campaign")) {
    Json::Object& members = campaign->members();
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [](const Json::Member& member) {
                                   return member.first == "threads" ||
                                          member.first == "batch_size";
                                 }),
                  members.end());
  }
  return scenario;
}

}  // namespace

std::string scenario_cache_key(const ScenarioSpec& spec) {
  return "scenario\n" + without_execution_knobs(spec.to_json()).dump() +
         "\nseed:" + std::to_string(spec.campaign.seed);
}

std::string sweep_cache_key(const SweepSpec& spec) {
  Json sweep = spec.to_json();
  sweep.set("scenario", without_execution_knobs(sweep.at("scenario")));
  return "sweep\n" + sweep.dump() +
         "\nseed:" + std::to_string(spec.base.campaign.seed);
}

std::string job_cache_key(const Job& job) {
  return job.is_sweep() ? sweep_cache_key(job.sweep)
                        : scenario_cache_key(job.scenario);
}

std::optional<std::string> ResultCache::lookup(std::string_view key) {
  const auto it = index_.find(fnv1a64(key));
  if (it == index_.end() || it->second->key != key) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  entries_.splice(entries_.begin(), entries_, it->second);
  return it->second->payload;
}

void ResultCache::insert(std::string_view key, std::string payload) {
  const std::uint64_t hash = fnv1a64(key);
  auto it = index_.find(hash);
  if (key.size() + payload.size() > byte_budget_) {
    // Oversize: admitting it would evict the whole cache and still not
    // fit.  Drop it — and any stale entry it would have replaced.
    if (it != index_.end()) {
      bytes_ -= entry_bytes(*it->second);
      entries_.erase(it->second);
      index_.erase(it);
      ++evictions_;
    }
    return;
  }
  if (it != index_.end()) {
    // Replace in place — a re-insert under the same key (or a hash
    // collision, where keeping both is impossible) refreshes the entry.
    bytes_ -= entry_bytes(*it->second);
    it->second->key.assign(key.data(), key.size());
    it->second->payload = std::move(payload);
    bytes_ += entry_bytes(*it->second);
    entries_.splice(entries_.begin(), entries_, it->second);
  } else {
    entries_.push_front(
        Entry{std::string(key), std::move(payload)});
    index_.emplace(hash, entries_.begin());
    bytes_ += entry_bytes(entries_.front());
    ++insertions_;
  }
  evict_to_fit();
}

void ResultCache::evict_to_fit() {
  while (bytes_ > byte_budget_ && !entries_.empty()) {
    const Entry& victim = entries_.back();
    bytes_ -= entry_bytes(victim);
    index_.erase(fnv1a64(victim.key));
    entries_.pop_back();
    ++evictions_;
  }
}

ResultCache::Stats ResultCache::stats() const noexcept {
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.insertions = insertions_;
  stats.evictions = evictions_;
  stats.bytes = bytes_;
  stats.entries = entries_.size();
  stats.byte_budget = byte_budget_;
  return stats;
}

}  // namespace hoval::service
