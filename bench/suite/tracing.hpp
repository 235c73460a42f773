#pragma once

/// \file tracing.hpp
/// Per-layer tracing from outside the library: decorators around the
/// builders a resolved scenario hands to Executor::submit.
///
///  * the InstanceBuilder's processes are wrapped in a HoProcess that
///    forwards message_for / transition / broadcasts / name and replays the
///    inner decision log through decide(), so consensus checks see exactly
///    the inner process's decisions;
///  * the AdversaryBuilder is timed (adversary build) and its adversary
///    wrapped to time apply();
///  * every predicate is wrapped so its stream's on_round() is timed; the
///    last predicate's finish() (or evaluate(), for predicates that do not
///    stream) ends the run.
///
/// A run starts at the ValueGenerator call.  Send and transition phases
/// are timed as one span per round — from the first process's call to the
/// last one's return — so the clock is read a handful of times per round,
/// not per link.  Accumulators are per thread (a run executes on one pool
/// worker) and the hot path takes no locks.  Decorated campaigns produce
/// byte-identical results: the decorators only forward.

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "scenario/run.hpp"

namespace suite::tracing {

/// One submitted campaign's span bookkeeping.  Workers fold their runs'
/// start and end times in with atomic min/max; the submitting thread
/// stamps submit and take.
struct CampaignSpan {
  int id = 0;   ///< campaign index within the traced pass
  int job = 0;  ///< job index within the traced pass
  bool keep_records = false;  ///< record every span of this campaign's runs
  std::int64_t submit_ns = 0;
  std::int64_t taken_ns = 0;
  std::atomic<std::int64_t> first_start{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> last_end{std::numeric_limits<std::int64_t>::min()};
};

/// Sums over every traced run since reset(); times in ns.
struct LayerTotals {
  long long runs = 0;
  long long rounds = 0;
  long long send_calls = 0;
  long long transition_calls = 0;
  long long apply_calls = 0;
  long long on_round_calls = 0;
  std::int64_t run_ns = 0;
  std::int64_t setup_ns = 0;   ///< run start -> first send
  std::int64_t build_ns = 0;   ///< adversary builder calls
  std::int64_t send_ns = 0;
  std::int64_t apply_ns = 0;
  std::int64_t transition_ns = 0;
  std::int64_t predicate_ns = 0;
  std::int64_t self_ns = 0;    ///< round time not in any timed layer
  std::int64_t finish_ns = 0;  ///< last round -> last predicate verdict

  LayerTotals& operator+=(const LayerTotals& other);
};

/// One recorded span; `parent` indexes the same record list (-1: the
/// campaign span `job`/`campaign` identify).
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int campaign = 0;
  int job = 0;
};

/// Wraps `resolved`'s builders and predicates in the decorators, feeding
/// `span`.  \throws std::runtime_error when the scenario has no predicate
/// (the last predicate's verdict is the run-end hook).
void decorate(hoval::ResolvedScenario& resolved,
              std::shared_ptr<CampaignSpan> span);

/// Zeroes every thread's accumulators.  Call only while no decorated run
/// executes.
void reset();

/// Merged accumulators / span records of every thread.  Call only after
/// every decorated campaign was collected (take() orders the workers'
/// writes before the read).
LayerTotals totals();
std::vector<SpanRecord> records();

}  // namespace suite::tracing
