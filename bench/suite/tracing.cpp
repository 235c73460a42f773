#include "tracing.hpp"

#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "adversary/adversary.hpp"
#include "model/process.hpp"
#include "predicates/predicate.hpp"
#include "suite.hpp"

namespace suite::tracing {

LayerTotals& LayerTotals::operator+=(const LayerTotals& other) {
  runs += other.runs;
  rounds += other.rounds;
  send_calls += other.send_calls;
  transition_calls += other.transition_calls;
  apply_calls += other.apply_calls;
  on_round_calls += other.on_round_calls;
  run_ns += other.run_ns;
  setup_ns += other.setup_ns;
  build_ns += other.build_ns;
  send_ns += other.send_ns;
  apply_ns += other.apply_ns;
  transition_ns += other.transition_ns;
  predicate_ns += other.predicate_ns;
  self_ns += other.self_ns;
  finish_ns += other.finish_ns;
  return *this;
}

namespace {

/// One thread's open run plus its running totals.
struct ThreadTrace {
  CampaignSpan* span = nullptr;  ///< the open run's campaign; null between runs
  bool keep = false;             ///< record this run's spans
  std::int64_t start = 0;
  std::int64_t first_send = 0;
  std::int64_t last_hook = 0;    ///< end of the latest transition / on_round
  std::int64_t send_begin = 0;
  std::int64_t transition_begin = 0;
  std::int64_t build = 0;
  std::int64_t send = 0;
  std::int64_t apply = 0;
  std::int64_t transition = 0;
  std::int64_t predicates = 0;
  long long rounds = 0;
  int run_record = -1;
  int setup_record = -1;
  int round_record = -1;

  LayerTotals totals;
  std::vector<SpanRecord> records;

  int record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
             int parent) {
    records.push_back(
        SpanRecord{name, start_ns, end_ns, parent, span->id, span->job});
    return static_cast<int>(records.size()) - 1;
  }
};

/// Every thread's ThreadTrace, registered on the thread's first traced call
/// — the only lock, taken once per thread.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_registry;
thread_local ThreadTrace* t_trace = nullptr;

ThreadTrace& local() {
  if (t_trace == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadTrace>());
    t_trace = g_registry.back().get();
  }
  return *t_trace;
}

void fold_min(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t current = slot.load(std::memory_order_relaxed);
  while (value < current &&
         !slot.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

void fold_max(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t current = slot.load(std::memory_order_relaxed);
  while (value > current &&
         !slot.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

void begin_run(ThreadTrace& t, CampaignSpan* span) {
  t.span = span;
  t.keep = span->keep_records;
  t.start = now_ns();
  t.first_send = t.last_hook = 0;
  t.build = t.send = t.apply = t.transition = t.predicates = 0;
  t.rounds = 0;
  if (t.keep) {
    t.run_record = t.record("run", t.start, t.start, -1);
    t.setup_record = t.record("run.setup", t.start, t.start, t.run_record);
  }
}

void end_run(ThreadTrace& t) {
  const std::int64_t end = now_ns();
  CampaignSpan* span = t.span;
  if (span == nullptr) return;
  const std::int64_t first_send = t.first_send != 0 ? t.first_send : end;
  const std::int64_t loop_end = t.last_hook != 0 ? t.last_hook : first_send;

  LayerTotals& sum = t.totals;
  ++sum.runs;
  sum.rounds += t.rounds;
  sum.run_ns += end - t.start;
  sum.setup_ns += first_send - t.start;
  sum.build_ns += t.build;
  sum.send_ns += t.send;
  sum.apply_ns += t.apply;
  sum.transition_ns += t.transition;
  sum.predicate_ns += t.predicates;
  sum.self_ns +=
      (loop_end - first_send) - t.send - t.apply - t.transition - t.predicates;
  sum.finish_ns += end - loop_end;

  fold_min(span->first_start, t.start);
  fold_max(span->last_end, end);
  if (t.keep) {
    t.record("run.finish", loop_end, end, t.run_record);
    t.records[static_cast<std::size_t>(t.run_record)].end_ns = end;
  }
  t.span = nullptr;
}

void mark_hook(ThreadTrace& t, std::int64_t end) {
  t.last_hook = end;
  if (t.keep && t.round_record >= 0)
    t.records[static_cast<std::size_t>(t.round_record)].end_ns = end;
}

class TracedProcess final : public hoval::HoProcess {
 public:
  explicit TracedProcess(std::unique_ptr<hoval::HoProcess> inner)
      : HoProcess(inner->id(), inner->universe_size()),
        inner_(std::move(inner)),
        last_(universe_size() - 1) {}

  hoval::Msg message_for(hoval::Round r, hoval::ProcessId dest) const override {
    ThreadTrace& t = local();
    ++t.totals.send_calls;
    // The simulator evaluates senders 0..n-1 (each once when it
    // broadcasts, else once per destination 0..n-1): the first call opens
    // the round's send span, the last one closes it.
    if (id() == 0 && dest == 0) {
      t.send_begin = now_ns();
      if (t.first_send == 0) {
        t.first_send = t.send_begin;
        if (t.keep)
          t.records[static_cast<std::size_t>(t.setup_record)].end_ns =
              t.send_begin;
      }
      if (t.keep)
        t.round_record = t.record("round", t.send_begin, t.send_begin,
                                  t.run_record);
    }
    hoval::Msg message = inner_->message_for(r, dest);
    if (id() == last_ && (dest == last_ || inner_->broadcasts())) {
      const std::int64_t end = now_ns();
      t.send += end - t.send_begin;
      if (t.keep) t.record("core.send", t.send_begin, end, t.round_record);
    }
    return message;
  }

  bool broadcasts() const noexcept override { return inner_->broadcasts(); }

  void transition(hoval::Round r, const hoval::ReceptionVector& mu) override {
    ThreadTrace& t = local();
    ++t.totals.transition_calls;
    if (id() == 0) t.transition_begin = now_ns();
    inner_->transition(r, mu);
    const auto& log = inner_->decision_log();
    for (; replayed_ < log.size(); ++replayed_)
      decide(log[replayed_].value, log[replayed_].round);
    if (id() == last_) {
      const std::int64_t end = now_ns();
      t.transition += end - t.transition_begin;
      ++t.rounds;
      if (t.keep)
        t.record("core.transition", t.transition_begin, end, t.round_record);
      mark_hook(t, end);
    }
  }

  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<hoval::HoProcess> inner_;
  hoval::ProcessId last_;
  std::size_t replayed_ = 0;  ///< inner decision-log entries replayed
};

class TracedAdversary final : public hoval::Adversary {
 public:
  explicit TracedAdversary(std::shared_ptr<hoval::Adversary> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void reset(int n, hoval::Rng& rng) override { inner_->reset(n, rng); }

  void apply(const hoval::IntendedRound& intended,
             hoval::DeliveredRound& delivered, hoval::Rng& rng) override {
    ThreadTrace& t = local();
    ++t.totals.apply_calls;
    const std::int64_t begin = now_ns();
    inner_->apply(intended, delivered, rng);
    const std::int64_t end = now_ns();
    t.apply += end - begin;
    if (t.keep) t.record("adversary.apply", begin, end, t.round_record);
  }

 private:
  std::shared_ptr<hoval::Adversary> inner_;
};

class TracedStream final : public hoval::PredicateStream {
 public:
  TracedStream(std::unique_ptr<hoval::PredicateStream> inner, bool ends_run)
      : inner_(std::move(inner)), ends_run_(ends_run) {}

  void reset(int n) override { inner_->reset(n); }

  void on_round(const hoval::RoundRecord& round) override {
    ThreadTrace& t = local();
    ++t.totals.on_round_calls;
    const std::int64_t begin = now_ns();
    inner_->on_round(round);
    const std::int64_t end = now_ns();
    t.predicates += end - begin;
    if (t.keep) t.record("predicates.on_round", begin, end, t.round_record);
    mark_hook(t, end);
  }

  hoval::PredicateVerdict finish() override {
    hoval::PredicateVerdict verdict = inner_->finish();
    if (ends_run_) end_run(local());
    return verdict;
  }

 private:
  std::unique_ptr<hoval::PredicateStream> inner_;
  bool ends_run_;
};

class TracedPredicate final : public hoval::Predicate {
 public:
  TracedPredicate(std::shared_ptr<hoval::Predicate> inner, bool ends_run)
      : inner_(std::move(inner)), ends_run_(ends_run) {}

  std::string name() const override { return inner_->name(); }

  hoval::PredicateVerdict evaluate(
      const hoval::ComputationTrace& trace) const override {
    hoval::PredicateVerdict verdict = inner_->evaluate(trace);
    if (ends_run_) end_run(local());
    return verdict;
  }

  std::unique_ptr<hoval::PredicateStream> make_stream() const override {
    std::unique_ptr<hoval::PredicateStream> stream = inner_->make_stream();
    if (!stream) return nullptr;  // keep the executor's evaluate() fallback
    return std::make_unique<TracedStream>(std::move(stream), ends_run_);
  }

 private:
  std::shared_ptr<hoval::Predicate> inner_;
  bool ends_run_;
};

}  // namespace

void decorate(hoval::ResolvedScenario& resolved,
              std::shared_ptr<CampaignSpan> span) {
  auto& predicates = resolved.config.predicates;
  if (predicates.empty())
    throw std::runtime_error(
        "tracing needs at least one predicate: its verdict ends the run");
  for (std::size_t i = 0; i < predicates.size(); ++i)
    predicates[i] = std::make_shared<TracedPredicate>(
        std::move(predicates[i]), i + 1 == predicates.size());

  resolved.values = [inner = std::move(resolved.values),
                     span = std::move(span)](hoval::Rng& rng) {
    begin_run(local(), span.get());
    return inner(rng);
  };
  resolved.instance = [inner = std::move(resolved.instance)](
                          const std::vector<hoval::Value>& initial) {
    hoval::ProcessVector processes = inner(initial);
    for (auto& process : processes)
      process = std::make_unique<TracedProcess>(std::move(process));
    return processes;
  };
  resolved.adversary = [inner = std::move(resolved.adversary)] {
    ThreadTrace& t = local();
    const std::int64_t begin = now_ns();
    std::shared_ptr<hoval::Adversary> adversary = inner();
    const std::int64_t end = now_ns();
    t.build += end - begin;
    if (t.keep) t.record("adversary.build", begin, end, t.setup_record);
    return std::make_shared<TracedAdversary>(std::move(adversary));
  };
}

void reset() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& thread : g_registry) {
    thread->totals = LayerTotals{};
    thread->records.clear();
    thread->span = nullptr;
  }
}

LayerTotals totals() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  LayerTotals sum;
  for (const auto& thread : g_registry) sum += thread->totals;
  return sum;
}

std::vector<SpanRecord> records() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<SpanRecord> merged;
  for (const auto& thread : g_registry) {
    const int base = static_cast<int>(merged.size());
    for (SpanRecord record : thread->records) {
      if (record.parent >= 0) record.parent += base;
      merged.push_back(record);
    }
  }
  return merged;
}

}  // namespace suite::tracing
