#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace hoval {
namespace {

bool has(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Every whole-instance factory in core/factories.hpp (plus LastVoting)
/// must be reachable from scenario JSON.
TEST(Registry, AllCoreFactoriesRegistered) {
  const auto names = AlgorithmRegistry::instance().names();
  for (const char* expected :
       {"ate", "utea", "otr", "uv", "lastvoting", "phaseking"})
    EXPECT_TRUE(has(names, expected)) << expected;
  EXPECT_EQ(names.size(), 6u);
}

/// Every concrete Adversary subclass in adversary/ must be reachable:
/// the injectors as base layers, the combinators as wrapper layers
/// (ComposedAdversary is the stack itself and has no name of its own).
TEST(Registry, AllAdversarySubclassesRegistered) {
  const auto names = AdversaryRegistry::instance().names();
  for (const char* expected : {
           "identity",          // IdentityAdversary
           "corrupt",           // RandomCorruptionAdversary
           "omit",              // RandomOmissionAdversary
           "crash",             // CrashAdversary
           "block",             // BlockFaultAdversary
           "byz",               // StaticByzantineAdversary
           "split",             // SplitVoteAdversary
           "bivalence",         // BivalenceAdversary
           "lockin",            // LockInAdversary
           "good-rounds",       // GoodRoundScheduler
           "clean-phases",      // CleanPhaseScheduler
           "safety-clamp",      // SafetyClampAdversary
           "usafe-clamp",       // SafetyClampAdversary at the Eq. 7 bound
           "transient-window",  // TransientWindowAdversary
           "periodic-burst",    // PeriodicBurstAdversary
       })
    EXPECT_TRUE(has(names, expected)) << expected;
}

/// Every concrete Predicate in predicates/ (a conjunction is expressed by
/// listing several predicates in the spec).
TEST(Registry, AllPredicatesRegistered) {
  const auto names = PredicateRegistry::instance().names();
  for (const char* expected : {"p-alpha", "p-perm-alpha", "p-benign",
                               "p-usafe", "p-a-live", "p-u-live", "sync-byz",
                               "async-byz"})
    EXPECT_TRUE(has(names, expected)) << expected;
}

/// Every generator in sim/initial_values.hpp.
TEST(Registry, AllValueGeneratorsRegistered) {
  const auto names = ValueGenRegistry::instance().names();
  for (const char* expected : {"random", "unanimous", "split", "distinct"})
    EXPECT_TRUE(has(names, expected)) << expected;
  EXPECT_EQ(names.size(), 4u);
}

TEST(Registry, EveryEntryHasASummary) {
  for (const auto& entry : AlgorithmRegistry::instance().entries())
    EXPECT_FALSE(entry.summary.empty()) << entry.name;
  for (const auto& entry : AdversaryRegistry::instance().entries())
    EXPECT_FALSE(entry.summary.empty()) << entry.name;
  for (const auto& entry : ValueGenRegistry::instance().entries())
    EXPECT_FALSE(entry.summary.empty()) << entry.name;
  for (const auto& entry : PredicateRegistry::instance().entries())
    EXPECT_FALSE(entry.summary.empty()) << entry.name;
}

TEST(Registry, UnknownNameFailsWithSuggestion) {
  try {
    AdversaryRegistry::instance().get("corupt", "adversary");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown adversary \"corupt\""), std::string::npos)
        << what;
    EXPECT_NE(what.find("did you mean \"corrupt\""), std::string::npos) << what;
  }
}

TEST(Registry, HopelessNameFailsWithoutSuggestion) {
  try {
    AlgorithmRegistry::instance().get("zzzzzzzzzz", "algorithm");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
    EXPECT_NE(what.find("known:"), std::string::npos) << what;
  }
}

TEST(Registry, DuplicateRegistrationFails) {
  auto& registry = AlgorithmRegistry::instance();
  EXPECT_THROW(registry.add("ate", "dup", AlgorithmFactory{}), ScenarioError);
}

TEST(Registry, ClosestNameMatchesSmallTypos) {
  const std::vector<std::string> known{"corrupt", "omit", "good-rounds"};
  EXPECT_EQ(closest_name("corupt", known), "corrupt");
  EXPECT_EQ(closest_name("goodrounds", known), "good-rounds");
  EXPECT_EQ(closest_name("banana", known), "");
}

TEST(Registry, WrapperWithoutInnerLayerFails) {
  const auto& entry = AdversaryRegistry::instance().get("good-rounds", "adversary");
  ResolveContext ctx;
  ctx.n = 9;
  EXPECT_THROW(entry.make(Json::object(), ctx, nullptr), ScenarioError);
}

TEST(Registry, UnknownParameterFailsWithSuggestion) {
  const auto& entry = AdversaryRegistry::instance().get("corrupt", "adversary");
  ResolveContext ctx;
  Json params = Json::object();
  params.set("alpa", 2);
  try {
    entry.make(params, ctx, nullptr);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown parameter \"alpa\""), std::string::npos)
        << what;
    EXPECT_NE(what.find("alpha"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace hoval
