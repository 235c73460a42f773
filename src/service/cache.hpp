#pragma once

/// \file cache.hpp
/// The spec-hash result cache behind hovald.  The simulator is
/// deterministic — identical spec and seed produce bit-identical results
/// at any thread count — so a campaign's canonical result text can be
/// replayed for a repeat submission without executing a single run.  Keys
/// are the canonical spec serialisation (scenario/spec.hpp emits sorted
/// keys, so one experiment has exactly one key) plus the base seed;
/// payloads are the compact result_json dump the server would otherwise
/// have produced.
///
/// The cache is bounded by a byte budget and evicts least-recently-used
/// entries.  The index hashes keys with FNV-1a (util/hash.hpp), which is
/// not collision-resistant, so every entry stores its full key bytes and a
/// lookup compares them — a hash collision degrades to a miss, never to a
/// wrong result.

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace hoval {
struct ScenarioSpec;
struct SweepSpec;
}  // namespace hoval

namespace hoval::service {

/// Builds the cache key for a scenario submission: a kind tag, the
/// canonical compact spec dump, and the campaign base seed.  The seed is
/// part of the spec document already, but naming it separately keeps the
/// seed-sensitivity contract explicit (and locked by tests/service/
/// cache_test.cpp): same spec text with a different seed never aliases.
/// `campaign.threads` and `campaign.batch_size` are left out of the key:
/// results are byte-identical at any value of either, so a resubmission
/// that differs only in them is a hit.
std::string scenario_cache_key(const ScenarioSpec& spec);
std::string sweep_cache_key(const SweepSpec& spec);

/// LRU map from canonical spec key to canonical result text, bounded by a
/// total byte budget (keys + payloads both count).  Not thread-safe; the
/// server owns one instance on its event-loop thread.
class ResultCache {
 public:
  explicit ResultCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

  /// Returns the cached payload and marks the entry most-recently-used,
  /// or nullopt on a miss.
  std::optional<std::string> lookup(std::string_view key);

  /// Inserts (or replaces) the entry, then evicts least-recently-used
  /// entries until the budget holds.  An entry larger than the whole
  /// budget is not inserted at all — it would only evict everything else
  /// and then fail to fit.
  void insert(std::string_view key, std::string payload);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;        ///< resident key + payload bytes
    std::size_t entries = 0;
    std::size_t byte_budget = 0;
  };
  Stats stats() const noexcept;

 private:
  struct Entry {
    std::string key;
    std::string payload;
  };

  std::size_t entry_bytes(const Entry& entry) const noexcept {
    return entry.key.size() + entry.payload.size();
  }
  void evict_to_fit();

  std::size_t byte_budget_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
  /// Front = most recently used.
  std::list<Entry> entries_;
  /// FNV-1a(key) -> entry; collisions resolved by full-key comparison.
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace hoval::service
