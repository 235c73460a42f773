#pragma once

/// \file workspace.hpp
/// RunWorkspace: the reusable per-run buffers of the Monte-Carlo hot path.
///
/// A single simulated run needs, per round, the intended messages of every
/// sender, n reception vectors and n HO/SHO record pairs — storage the
/// seed simulator reallocated from scratch every round of every run.  A
/// RunWorkspace owns all of it once: the Simulator borrows a workspace and
/// overwrites the same buffers round after round, and the resettable
/// ComputationTrace recycles its round records run after run.  Campaign
/// workers (sim/engine.hpp) keep one workspace per thread, so back-to-back
/// runs of a campaign are allocation-free outside the algorithm instances
/// themselves.
///
/// A workspace is not thread-safe and serves one live Simulator at a time;
/// results that must outlive the next run (e.g. retained traces) are
/// copied out by the caller.

#include "adversary/adversary.hpp"
#include "model/trace.hpp"

namespace hoval {

/// Reusable buffers for back-to-back simulation runs.
struct RunWorkspace {
  IntendedRound intended;   ///< sending-function outputs of the current round
  DeliveredRound delivered; ///< adversary-transformed delivery of the round
  ComputationTrace trace;   ///< ground-truth trace of the current run

  /// Prepares the buffers for a run over `n` processes; storage from
  /// earlier runs is reused whenever the universe size matches.
  void reset(int n);
};

}  // namespace hoval
