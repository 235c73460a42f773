#include "sim/campaign.hpp"

#include <sstream>

#include "util/format.hpp"

namespace hoval {

std::string CampaignResult::summary() const {
  if (runs == 0) return "empty campaign (0 runs)";
  const bool adaptive = ci_confidence > 0.0;
  std::ostringstream os;
  // Every rate below divides by `runs` — the runs actually executed — so
  // an early-stopped campaign reports correct rates, not rates diluted by
  // the requested budget.
  if (adaptive) {
    os << runs << "/" << runs_requested << " runs (adaptive"
       << (stopped_early ? ", stopped early" : "") << ")";
  } else {
    os << runs << " runs";
  }
  os << ": agreement "
     << (agreement_violations == 0
             ? "ok"
             : std::to_string(agreement_violations) + " violations")
     << ", integrity "
     << (integrity_violations == 0
             ? "ok"
             : std::to_string(integrity_violations) + " violations");
  if (terminated == 0) {
    os << ", none terminated within the horizon";
  } else {
    os << ", terminated " << format_percent(termination_rate(), 1);
    if (!last_decision_rounds.empty())
      os << ", decided by round "
         << format_double(last_decision_rounds.mean(), 2) << " (median "
         << format_double(last_decision_rounds.median(), 1) << ", max "
         << format_double(last_decision_rounds.max(), 0) << ")";
  }
  if (!predicate_holds.empty()) {
    os << ", predicates:";
    for (std::size_t i = 0; i < predicate_holds.size(); ++i) {
      const std::string name = i < predicate_names.size() &&
                                       !predicate_names[i].empty()
                                   ? predicate_names[i]
                                   : "#" + std::to_string(i);
      os << (i == 0 ? " " : "; ") << name << " " << predicate_holds[i] << "/"
         << runs;
      if (i < predicate_intervals.size())
        os << " " << predicate_intervals[i].to_string();
    }
  }
  if (cancelled) os << " [cancelled]";
  return os.str();
}

}  // namespace hoval
