#pragma once

/// \file scheduler.hpp
/// Service-level admission policy for hovald.  The Executor underneath
/// drains the campaigns it holds in submission order (workers claim from
/// the earliest job with runnable work), so admission order *is* the
/// service's scheduling decision: admitting every submission at once
/// would let one client's giant sweep park everyone else's work behind
/// it.  The server therefore keeps a pending queue and asks this policy
/// which job to admit whenever an active slot frees up.
///
/// The policy is deliberately simple and fully deterministic (testable
/// without a server): small jobs — estimated cost at most
/// SchedulerPolicy::small_job_cost runs — go before large ones so an
/// interactive scenario never waits behind a bulk sweep; within a class,
/// the client with the fewest active jobs wins (fair share); remaining
/// ties break FIFO by submission sequence.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace hoval {
struct Job;
struct ScenarioSpec;
struct SweepSpec;
}  // namespace hoval

namespace hoval::service {

/// Estimated cost of a job in simulation runs.  Adaptive campaigns charge
/// their stopping-rule cap (the worst case actually admitted), not the
/// nominal `runs` floor.
long long scenario_cost(const ScenarioSpec& spec);
long long sweep_cost(const SweepSpec& spec);
long long job_cost(const Job& job);

/// One queued submission as the policy sees it; `seq` is a server-global
/// monotonic counter fixing the FIFO order, `client` is an opaque
/// connection identifier (the server uses the socket fd).
struct QueuedJob {
  std::uint64_t seq = 0;
  int client = -1;
  int id = -1;
  long long cost = 0;
};

struct SchedulerPolicy {
  /// Jobs costing at most this many runs form the priority class.
  long long small_job_cost = 1000;
};

/// Picks the index of the next job in `pending` to admit, given how many
/// jobs each client currently has active.  Returns pending.size() when
/// the queue is empty.  Clients absent from `active_per_client` count as
/// zero active jobs.
std::size_t pick_next(const std::vector<QueuedJob>& pending,
                      const std::unordered_map<int, int>& active_per_client,
                      const SchedulerPolicy& policy);

}  // namespace hoval::service
