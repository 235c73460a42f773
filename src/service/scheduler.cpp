#include "service/scheduler.hpp"

#include "scenario/job.hpp"

namespace hoval::service {

long long scenario_cost(const ScenarioSpec& spec) {
  const CampaignKnobs& knobs = spec.campaign;
  const int runs =
      knobs.adaptive.enabled ? knobs.adaptive.cap(knobs.runs) : knobs.runs;
  return static_cast<long long>(runs);
}

long long sweep_cost(const SweepSpec& spec) {
  // A refined sweep's point count is data-dependent; its admission cost is
  // the budget ceiling, which the refinement driver never exceeds.
  const long long points =
      spec.refine.enabled
          ? static_cast<long long>(spec.refine.max_points)
          : static_cast<long long>(spec.point_count());
  return points * scenario_cost(spec.base);
}

long long job_cost(const Job& job) {
  return job.is_sweep() ? sweep_cost(job.sweep) : scenario_cost(job.scenario);
}

std::size_t pick_next(const std::vector<QueuedJob>& pending,
                      const std::unordered_map<int, int>& active_per_client,
                      const SchedulerPolicy& policy) {
  const auto active_of = [&](int client) {
    const auto it = active_per_client.find(client);
    return it == active_per_client.end() ? 0 : it->second;
  };
  const auto better = [&](const QueuedJob& a, const QueuedJob& b) {
    const bool a_small = a.cost <= policy.small_job_cost;
    const bool b_small = b.cost <= policy.small_job_cost;
    if (a_small != b_small) return a_small;
    const int a_active = active_of(a.client);
    const int b_active = active_of(b.client);
    if (a_active != b_active) return a_active < b_active;
    return a.seq < b.seq;
  };
  std::size_t best = pending.size();
  for (std::size_t i = 0; i < pending.size(); ++i)
    if (best == pending.size() || better(pending[i], pending[best])) best = i;
  return best;
}

}  // namespace hoval::service
