#pragma once

/// \file executor.hpp
/// Executor: the one campaign runner.
///
/// An Executor is a long-lived worker pool that campaigns are submitted
/// to asynchronously: submit() returns a CampaignHandle immediately, and
/// the campaign's deterministic adaptive waves become schedulable blocks
/// of pool work.  Every front end (CLI, daemon, dispatch worker, benches)
/// owns exactly one and passes it to the entry points that run campaigns
/// (scenario/run.hpp, refine/driver.hpp).  Campaigns
/// from different submissions interleave on the same workers — an
/// adaptive early-stopper frees its workers for whatever else is queued —
/// so a whole sweep shares one pool lifecycle.
///
/// Determinism is preserved *by construction*, including under
/// interleaving.  Every run of a campaign derives its RNG streams from
/// (base_seed, run index) alone, outcomes land in per-run slots, and the
/// reduction merges them in run-index order; adaptive stopping decisions
/// are evaluated only on fully-executed wave prefixes.  Nothing a run
/// computes depends on which worker executed it, which pool it ran on, or
/// what other campaigns were in flight — so a campaign's CampaignResult is
/// bit-identical for any executor thread count, any batch size, and any
/// submission interleaving.
///
/// Each worker owns one RunWorkspace (sim/workspace.hpp) for its entire
/// lifetime: the workspace is size-agnostic and reused across *all* the
/// runs the worker executes, across campaigns and submissions.  Predicate
/// streams are rebuilt when a worker switches campaigns (they are
/// campaign-specific) and reused while it stays on one.
///
/// A CampaignHandle is also the natural unit of future cross-process
/// sharding: it names one campaign's (builders, config) pair plus a
/// completion slot, which is exactly what a multi-host dispatcher would
/// serialise per shard.
///
/// Thread-safety: submit() and every CampaignHandle member may be called
/// from any thread, including from inside a progress callback (so a
/// callback can cancel sibling campaigns).  The builders of a submitted
/// campaign are invoked concurrently from the pool and must be safe to
/// call from multiple threads — true of every builder in this library.  A
/// campaign whose builders share mutable state needs a single-worker
/// Executor.

#include <memory>

#include "sim/campaign.hpp"

namespace hoval {

namespace detail {
class CampaignJob;
}  // namespace detail

/// Completion handle for one submitted campaign.  Cheap to copy (all
/// copies address the same campaign) and safe to outlive the Executor: the
/// executor's destructor drains every submitted campaign first.
class CampaignHandle {
 public:
  /// An empty handle; valid() is false and every other member is UB.
  CampaignHandle() = default;

  bool valid() const noexcept { return job_ != nullptr; }

  /// True once the campaign has finished (completed, cancelled, or failed
  /// with a stored exception).  Never blocks.
  bool ready() const;

  /// Blocks until the campaign has finished.  Does not throw stored
  /// campaign errors — result()/take() do.
  void wait() const;

  /// Blocks until finished and returns the merged result.  \throws the
  /// first exception a builder, predicate or progress callback raised
  /// while the campaign executed.
  const CampaignResult& result() const;

  /// Blocks until finished and *moves* the result out — the zero-copy way
  /// to collect a campaign that retained traces.  Call at most once per
  /// campaign; afterwards result() views a moved-from value.  \throws like
  /// result().
  CampaignResult take();

  /// Requests cancellation: no further runs of this campaign start, runs
  /// already executing finish, and the result is reduced over the executed
  /// prefix with CampaignResult::cancelled set (the same result a
  /// progress-callback veto gives).  Cancelling before the first run starts
  /// yields an empty cancelled result.  Returns true when the request
  /// landed before the campaign finished; false when there was nothing
  /// left to cancel.  Idempotent.
  bool cancel();

 private:
  friend class Executor;
  explicit CampaignHandle(std::shared_ptr<detail::CampaignJob> job);

  std::shared_ptr<detail::CampaignJob> job_;
};

/// Persistent worker pool with an async campaign-submission API.
class Executor {
 public:
  /// Spins up the pool.  `threads` = 0 means one worker per hardware
  /// thread; 1 gives a serial (but still async) executor.
  /// \throws PreconditionError on threads < 0.
  explicit Executor(int threads = 0);

  /// Drains: blocks until every submitted campaign has finished (cancel
  /// handles first for a fast exit), then joins the workers.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues a campaign and returns immediately.  \throws
  /// PreconditionError on a missing builder, runs <= 0, progress_batch
  /// <= 0, batch_size < 0 (0 = auto: roughly cap / (threads * 8), clamped
  /// to [1, 64]), or invalid adaptive knobs (min_runs <= 0, max_runs < 0,
  /// ci_epsilon <= 0, ci_confidence outside (0, 1)).
  CampaignHandle submit(ValueGenerator values, InstanceBuilder instance,
                        AdversaryBuilder adversary, CampaignConfig config);

  /// The fixed worker count of this pool.
  int threads() const noexcept { return threads_; }

 private:
  struct Impl;

  int threads_ = 1;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hoval
