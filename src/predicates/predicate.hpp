#pragma once

/// \file predicate.hpp
/// Communication predicates (Sec. 2.2): predicates over the collections
/// (HO(p,r)) and (SHO(p,r)) that characterise *all* system assumptions —
/// synchrony, failures, fault bounds — in one unified object.  Predicates
/// over HO alone are liveness properties of communication; predicates
/// involving SHO are safety properties.
///
/// Evaluation semantics on finite prefixes: permanent clauses
/// (∀r ...) are checked on every recorded round; eventual clauses
/// (∃r ...) hold iff a witness occurs in the recorded prefix.  The paper's
/// time-invariant "∀r ∃r' >= r" shapes therefore degrade gracefully: a
/// verdict reports the witnesses found so experiments can also assert
/// *how often* the good rounds occurred.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/trace.hpp"

namespace hoval {

/// Outcome of evaluating a predicate on a trace prefix.
struct PredicateVerdict {
  bool holds = false;
  /// First round at which a permanent clause failed, if any.
  std::optional<Round> violation_round;
  /// Witness rounds of eventual clauses (empty for permanent predicates).
  std::vector<Round> witnesses;
  /// Human-readable explanation of the verdict.
  std::string detail;
};

/// Incremental (streaming) evaluator of a predicate, fed one round at a
/// time while a run executes so campaign workers never need a second pass
/// over the trace.  Protocol per run: reset(n), then on_round() for every
/// recorded round in order, then finish() — the verdict is identical to
/// evaluate() on the same prefix (locked by tests/predicates/
/// streaming_test.cpp).  Streams are created by Predicate::make_stream()
/// and owned by the caller (one per worker), which keeps the shared
/// Predicate object stateless and thread-safe; one stream instance is
/// reusable across runs via reset().
class PredicateStream {
 public:
  virtual ~PredicateStream() = default;

  /// Rewinds the stream for a fresh run over `n` processes.
  virtual void reset(int n) = 0;

  /// Consumes the next recorded round (rounds arrive in order from 1).
  virtual void on_round(const RoundRecord& round) = 0;

  /// The verdict over the rounds consumed since the last reset().
  virtual PredicateVerdict finish() = 0;
};

/// A communication predicate evaluated against ground-truth traces.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Short identifier, e.g. "P_alpha(3)".
  virtual std::string name() const = 0;

  /// Evaluates the predicate on the recorded prefix.
  virtual PredicateVerdict evaluate(const ComputationTrace& trace) const = 0;

  /// A streaming evaluator, or nullptr when this predicate only supports
  /// whole-trace evaluate() (the default) — callers must fall back.
  virtual std::unique_ptr<PredicateStream> make_stream() const {
    return nullptr;
  }
};

}  // namespace hoval
