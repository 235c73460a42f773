#include "core/ate.hpp"

#include "util/check.hpp"

namespace hoval {

AteProcess::AteProcess(ProcessId id, AteParams params, Value initial)
    : HoProcess(id, params.n), params_(params), x_(initial) {
  HOVAL_EXPECTS_MSG(params.well_formed(), "malformed A_{T,E} parameters");
}

Msg AteProcess::message_for(Round /*r*/, ProcessId /*dest*/) const {
  return make_estimate(x_);
}

void AteProcess::transition(Round r, const ReceptionVector& mu) {
  // Both rules below read the estimate histogram; one ascending pass
  // answers both (ties toward the smallest value, as the paper requires).
  std::optional<Value> most_frequent;
  int most_frequent_count = 0;
  std::optional<Value> decided;
  mu.for_each_payload(MsgKind::kEstimate, [&](Value v, int count) {
    if (count > most_frequent_count) {
      most_frequent = v;
      most_frequent_count = count;
    }
    if (!decided && static_cast<double>(count) > params_.threshold_e)
      decided = v;
  });

  // Line 7-8: adopt the smallest most often received value when more than
  // T messages (of any content — corrupted ones count towards |HO|) came in.
  // All received messages corrupted beyond recognition (no well-formed
  // estimate at all): keep the current estimate.  Unreachable under
  // P_alpha with T >= 2*alpha, but the adversary may violate P_alpha in
  // the negative experiments.
  if (mu.count_received() > params_.threshold_t && most_frequent)
    x_ = *most_frequent;

  // Line 9-10: decide on any value received strictly more than E times.
  if (decided) decide(*decided, r);
}

std::string AteProcess::name() const { return params_.to_string(); }

}  // namespace hoval
