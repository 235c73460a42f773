#pragma once

/// \file machine.hpp
/// The HO machine ⟨A, P⟩ of Sec. 2.2 as a first-class object: an algorithm
/// (instance builder), an environment (adversary builder, realising the
/// fault pattern), and the communication predicate(s) the machine assumes.
/// solve() runs once and reports decisions, consensus verdicts and
/// per-predicate verdicts on the ground-truth trace; campaign() submits a
/// Monte-Carlo campaign to an Executor.
///
/// The machine "solves consensus" when every run satisfying P satisfies
/// Agreement/Integrity/Termination — solve() hands back exactly the pieces
/// needed to check that statement empirically: whether P held, and whether
/// the clauses held.

#include <memory>
#include <vector>

#include "predicates/predicate.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"
#include "sim/properties.hpp"
#include "sim/simulator.hpp"

namespace hoval {

/// Outcome of one HoMachine::solve() call.
struct MachineReport {
  RunResult run;
  ConsensusReport consensus;
  PropertyVerdict irrevocability;
  /// Verdicts of the machine's predicates on the executed prefix, aligned
  /// with the predicates passed at construction.
  std::vector<PredicateVerdict> predicate_verdicts;

  /// True when every declared predicate held on the trace.
  bool predicates_hold() const;
  /// The paper's correctness statement for this run: if the predicates
  /// held, the consensus clauses must have held.
  bool consistent_with_theorem() const;
};

/// An HO machine ⟨A, P⟩ bound to an environment.
class HoMachine {
 public:
  /// \param instance    builds the algorithm's processes from initial values
  /// \param adversary   builds a fresh environment per run
  /// \param predicates  the communication predicate P (conjunctively)
  HoMachine(InstanceBuilder instance, AdversaryBuilder adversary,
            std::vector<std::shared_ptr<Predicate>> predicates);

  /// Runs the machine once on the given initial values.
  MachineReport solve(const std::vector<Value>& initial_values,
                      const SimConfig& config) const;

  /// Runs a Monte-Carlo campaign on `executor` (predicates are appended to
  /// the config's).  Unless the executor has one worker, the machine's
  /// builders are invoked concurrently (see sim/executor.hpp).
  CampaignResult campaign(const ValueGenerator& values, CampaignConfig config,
                          Executor& executor) const;

 private:
  InstanceBuilder instance_;
  AdversaryBuilder adversary_;
  std::vector<std::shared_ptr<Predicate>> predicates_;
};

}  // namespace hoval
