#include "core/utea.hpp"

#include "util/check.hpp"

namespace hoval {

UteaProcess::UteaProcess(ProcessId id, UteaParams params, Value initial)
    : HoProcess(id, params.n), params_(params), x_(initial) {
  HOVAL_EXPECTS_MSG(params.well_formed(), "malformed U_{T,E,alpha} parameters");
}

Msg UteaProcess::message_for(Round r, ProcessId /*dest*/) const {
  if (is_first_round_of_phase(r)) return make_estimate(x_);
  return vote_ ? make_vote(*vote_) : make_question_vote();
}

void UteaProcess::transition(Round r, const ReceptionVector& mu) {
  if (is_first_round_of_phase(r)) {
    first_round_transition(mu);
  } else {
    second_round_transition(r, mu);
  }
}

void UteaProcess::first_round_transition(const ReceptionVector& mu) {
  // Line 8-9: vote for a value received strictly more than T times.  With
  // T >= n/2 + alpha and P_alpha at most one such value exists (Lemma 8);
  // payload_exceeding() deterministically picks the smallest otherwise.
  if (const auto v = mu.payload_exceeding(MsgKind::kEstimate, params_.threshold_t))
    vote_ = *v;
  // Otherwise the vote stays '?' (it was reset at the end of the previous
  // phase, and is '?' initially).
}

void UteaProcess::second_round_transition(Round r, const ReceptionVector& mu) {
  // Lines 14-17: adopt v on >= alpha+1 true votes for v — under P_alpha at
  // least one process genuinely voted v.  Pick the best-supported value
  // (smallest on ties); under Lemma 8's conditions at most one value can
  // clear the alpha+1 bar anyway.
  // Adoption and decision (lines 18-19: strictly more than E true votes
  // for one value) both read the vote histogram in one ascending pass.
  std::optional<Value> adopted;
  int adopted_count = 0;
  std::optional<Value> decided;
  mu.for_each_payload(MsgKind::kVote, [&](Value v, int count) {
    if (count >= params_.alpha + 1 && count > adopted_count) {
      adopted = v;
      adopted_count = count;
    }
    if (!decided && static_cast<double>(count) > params_.threshold_e)
      decided = v;
  });

  x_ = adopted ? *adopted : params_.default_value;
  if (decided) decide(*decided, r);

  // Line 20: reset the vote for the next phase.
  vote_.reset();
}

std::string UteaProcess::name() const { return params_.to_string(); }

}  // namespace hoval
