#include "sim/simulator.hpp"

#include "util/check.hpp"

namespace hoval {

int RunResult::decided_count() const {
  int total = 0;
  for (const auto& d : decisions)
    if (d) ++total;
  return total;
}

Simulator::Simulator(ProcessVector processes, std::shared_ptr<Adversary> adversary,
                     SimConfig config)
    : Simulator(std::move(processes), std::move(adversary), config, nullptr) {}

Simulator::Simulator(ProcessVector processes, std::shared_ptr<Adversary> adversary,
                     SimConfig config, RunWorkspace* workspace)
    : processes_(std::move(processes)),
      adversary_(std::move(adversary)),
      config_(config),
      rng_(config.seed) {
  HOVAL_EXPECTS_MSG(!processes_.empty(), "need at least one process");
  HOVAL_EXPECTS_MSG(adversary_ != nullptr, "adversary must not be null");
  HOVAL_EXPECTS_MSG(config.max_rounds >= 1, "horizon must be positive");
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    HOVAL_EXPECTS_MSG(processes_[i] != nullptr, "process must not be null");
    HOVAL_EXPECTS_MSG(processes_[i]->id() == static_cast<ProcessId>(i),
                      "process ids must be 0..n-1 in order");
    HOVAL_EXPECTS_MSG(processes_[i]->universe_size() ==
                          static_cast<int>(processes_.size()),
                      "every process must agree on n");
  }
  if (workspace == nullptr) {
    owned_workspace_ = std::make_unique<RunWorkspace>();
    workspace = owned_workspace_.get();
  }
  workspace_ = workspace;
  workspace_->reset(static_cast<int>(processes_.size()));
}

bool Simulator::everyone_decided() const {
  for (const auto& p : processes_)
    if (!p->decision()) return false;
  return true;
}

bool Simulator::step() {
  if (finished_) return false;
  if (!started_) {
    adversary_->reset(static_cast<int>(processes_.size()), rng_);
    started_ = true;
  }
  if (next_round_ > config_.max_rounds ||
      (config_.stop_when_all_decided && everyone_decided())) {
    finished_ = true;
    return false;
  }

  const int n = static_cast<int>(processes_.size());
  const Round r = next_round_++;

  // (1) Sending functions, into the workspace's reusable round.  A
  // broadcasting sender is one S_q^r evaluation stored once, not n.
  IntendedRound& intended = workspace_->intended;
  intended.round = r;
  for (ProcessId q = 0; q < n; ++q) {
    const HoProcess& sender = *processes_[static_cast<std::size_t>(q)];
    if (sender.broadcasts()) {
      intended.broadcast(q, sender.message_for(r, 0));
    } else {
      for (ProcessId p = 0; p < n; ++p)
        intended.send(q, p, sender.message_for(r, p));
    }
  }

  // (2) Adversary transforms the faithful delivery: every receiver starts
  // as a copy-on-write view of one shared faithful base vector.
  DeliveredRound& delivered = workspace_->delivered;
  delivered.assign_faithful(intended);
  adversary_->apply(intended, delivered, rng_);

  // (3) Ground truth: HO is the support bitset, SHO the support minus the
  // altered links tracked by the delivery — pure word operations, recorded
  // straight into the trace's recycled round records (SHO ⊆ HO holds by
  // construction — a safe link is a delivered link).
  std::vector<HoRecord>& records = workspace_->trace.begin_round();
  for (ProcessId p = 0; p < n; ++p) {
    HoRecord& rec = records[static_cast<std::size_t>(p)];
    delivered.ground_truth_into(p, rec.ho, rec.sho);
  }

  // (4) Transition functions.
  for (ProcessId p = 0; p < n; ++p)
    processes_[static_cast<std::size_t>(p)]->transition(
        r, delivered.by_receiver[static_cast<std::size_t>(p)]);

  return true;
}

RunResult Simulator::run() {
  while (step()) {
  }
  return snapshot();
}

RunResult Simulator::snapshot(bool include_trace) const {
  RunResult result;
  result.n = static_cast<int>(processes_.size());
  result.rounds_executed = workspace_->trace.round_count();
  if (include_trace)
    result.trace = workspace_->trace;
  else
    result.trace = ComputationTrace(result.n);
  result.decisions.reserve(processes_.size());
  result.decision_rounds.reserve(processes_.size());
  for (const auto& p : processes_) {
    result.decisions.push_back(p->decision());
    result.decision_rounds.push_back(p->decision_round());
    if (p->decision_round()) {
      if (!result.first_decision_round ||
          *p->decision_round() < *result.first_decision_round)
        result.first_decision_round = p->decision_round();
      if (!result.last_decision_round ||
          *p->decision_round() > *result.last_decision_round)
        result.last_decision_round = p->decision_round();
    }
  }
  result.all_decided = result.decided_count() == result.n;
  return result;
}

}  // namespace hoval
