/// Locks the hovald result cache (service/cache.hpp): key construction
/// (canonical bytes + explicit seed sensitivity), LRU eviction under a
/// byte budget, replacement, oversize rejection, and the stats counters
/// the daemon reports.

#include "service/cache.hpp"

#include <gtest/gtest.h>

#include <string>

#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace hoval::service {
namespace {

ScenarioSpec demo_spec() {
  ScenarioSpec spec;
  spec.algorithm = component("ate", {{"n", 9}, {"alpha", 1}});
  spec.campaign.runs = 10;
  spec.campaign.seed = 42;
  return spec;
}

// --- keys ------------------------------------------------------------------

TEST(CacheKeys, ScenarioKeyIsCanonicalAndSeedSensitive) {
  const ScenarioSpec spec = demo_spec();
  ScenarioSpec reordered = demo_spec();
  reordered.algorithm = component("ate", {{"alpha", 1}, {"n", 9}});
  // Same experiment, different authoring order: one key.
  EXPECT_EQ(scenario_cache_key(reordered), scenario_cache_key(spec));

  ScenarioSpec reseeded = demo_spec();
  reseeded.campaign.seed = 43;
  EXPECT_NE(scenario_cache_key(reseeded), scenario_cache_key(spec));

  ScenarioSpec more_runs = demo_spec();
  more_runs.campaign.runs = 11;
  EXPECT_NE(scenario_cache_key(more_runs), scenario_cache_key(spec));
}

TEST(CacheKeys, PoolAndBatchSizeKnobsStayOutOfTheKeys) {
  // Results are byte-identical at any thread count and batch size
  // (executor.hpp), so neither knob may split one experiment's entry.
  const ScenarioSpec spec = demo_spec();
  ScenarioSpec tuned = demo_spec();
  tuned.campaign.threads = 8;
  tuned.campaign.batch_size = 7;
  EXPECT_EQ(scenario_cache_key(tuned), scenario_cache_key(spec));
  EXPECT_EQ(scenario_cache_key(spec).find("threads"), std::string::npos);

  SweepSpec sweep;
  sweep.base = spec;
  sweep.axes.push_back(
      SweepAxis::single("algorithm.params.alpha", {Json(0), Json(1)}));
  SweepSpec tuned_sweep = sweep;
  tuned_sweep.base = tuned;
  EXPECT_EQ(sweep_cache_key(tuned_sweep), sweep_cache_key(sweep));
  EXPECT_EQ(sweep_cache_key(tuned_sweep).find("batch_size"), std::string::npos);
}

TEST(CacheKeys, ScenarioAndSweepKeysNeverAlias) {
  // A one-point sweep over a spec is a different computation shape (array
  // result vs object result); the kind tag must keep the keys apart.
  SweepSpec sweep;
  sweep.base = demo_spec();
  EXPECT_NE(sweep_cache_key(sweep), scenario_cache_key(demo_spec()));
}

TEST(CacheKeys, SweepKeyTracksAxesAndBaseSeed) {
  SweepSpec sweep;
  sweep.base = demo_spec();
  sweep.axes.push_back(
      SweepAxis::single("algorithm.params.alpha", {Json(0), Json(1)}));
  SweepSpec wider = sweep;
  wider.axes[0] =
      SweepAxis::single("algorithm.params.alpha", {Json(0), Json(1), Json(2)});
  EXPECT_NE(sweep_cache_key(wider), sweep_cache_key(sweep));

  SweepSpec reseeded = sweep;
  reseeded.base.campaign.seed = 43;
  EXPECT_NE(sweep_cache_key(reseeded), sweep_cache_key(sweep));
}

// --- the LRU ---------------------------------------------------------------

TEST(ResultCacheTest, HitReturnsPayloadAndCountsStats) {
  ResultCache cache(1024);
  EXPECT_FALSE(cache.lookup("k1").has_value());
  cache.insert("k1", "payload-one");
  const auto hit = cache.lookup("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-one");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, std::string("k1").size() +
                             std::string("payload-one").size());
  EXPECT_EQ(stats.byte_budget, 1024u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderTinyBudget) {
  // Budget fits exactly two of these 10-byte entries (4-byte key +
  // 6-byte payload).
  ResultCache cache(20);
  cache.insert("key1", "aaaaaa");
  cache.insert("key2", "bbbbbb");
  EXPECT_EQ(cache.stats().entries, 2u);

  // Touch key1 so key2 becomes the LRU victim.
  ASSERT_TRUE(cache.lookup("key1").has_value());
  cache.insert("key3", "cccccc");

  EXPECT_TRUE(cache.lookup("key1").has_value());
  EXPECT_FALSE(cache.lookup("key2").has_value());
  EXPECT_TRUE(cache.lookup("key3").has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 20u);
}

TEST(ResultCacheTest, InsertReplacesExistingKey) {
  ResultCache cache(1024);
  cache.insert("key", "old");
  cache.insert("key", "new");
  const auto hit = cache.lookup("key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "new");
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, 3u + 3u);
}

TEST(ResultCacheTest, OversizeEntryIsRejectedWithoutEvictingOthers) {
  ResultCache cache(20);
  cache.insert("key1", "aaaaaa");
  cache.insert("big", std::string(64, 'x'));  // exceeds the whole budget
  EXPECT_FALSE(cache.lookup("big").has_value());
  EXPECT_TRUE(cache.lookup("key1").has_value());  // untouched
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCacheTest, ZeroBudgetCachesNothing) {
  ResultCache cache(0);
  cache.insert("key", "value");
  EXPECT_FALSE(cache.lookup("key").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ResultCacheTest, ManyInsertionsStayWithinBudget) {
  ResultCache cache(100);
  for (int i = 0; i < 50; ++i)
    cache.insert("key-" + std::to_string(i), std::string(10, 'p'));
  const auto stats = cache.stats();
  EXPECT_LE(stats.bytes, 100u);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_EQ(stats.insertions, 50u);
  EXPECT_GE(stats.evictions, 40u);
  // The most recent entries survive.
  EXPECT_TRUE(cache.lookup("key-49").has_value());
  EXPECT_FALSE(cache.lookup("key-0").has_value());
}

}  // namespace
}  // namespace hoval::service
