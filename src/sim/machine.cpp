#include "sim/machine.hpp"

#include <utility>

#include "util/check.hpp"

namespace hoval {

bool MachineReport::predicates_hold() const {
  for (const auto& verdict : predicate_verdicts)
    if (!verdict.holds) return false;
  return true;
}

bool MachineReport::consistent_with_theorem() const {
  if (!predicates_hold()) return true;  // nothing promised outside P
  return consensus.all_hold() && irrevocability.holds;
}

HoMachine::HoMachine(InstanceBuilder instance, AdversaryBuilder adversary,
                     std::vector<std::shared_ptr<Predicate>> predicates)
    : instance_(std::move(instance)),
      adversary_(std::move(adversary)),
      predicates_(std::move(predicates)) {
  HOVAL_EXPECTS_MSG(instance_ != nullptr, "machine needs an algorithm");
  HOVAL_EXPECTS_MSG(adversary_ != nullptr, "machine needs an environment");
  for (const auto& predicate : predicates_)
    HOVAL_EXPECTS_MSG(predicate != nullptr, "predicates must not be null");
}

MachineReport HoMachine::solve(const std::vector<Value>& initial_values,
                               const SimConfig& config) const {
  Simulator simulator(instance_(initial_values), adversary_(), config);
  MachineReport report;
  report.run = simulator.run();
  report.consensus = check_consensus(initial_values, report.run);
  report.irrevocability = check_irrevocability(simulator.processes());
  report.predicate_verdicts.reserve(predicates_.size());
  for (const auto& predicate : predicates_)
    report.predicate_verdicts.push_back(predicate->evaluate(report.run.trace));
  return report;
}

CampaignResult HoMachine::campaign(const ValueGenerator& values,
                                   CampaignConfig config,
                                   Executor& executor) const {
  for (const auto& predicate : predicates_)
    config.predicates.push_back(predicate);
  return executor.submit(values, instance_, adversary_, std::move(config))
      .take();
}

}  // namespace hoval
