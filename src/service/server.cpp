#include "service/server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <list>
#include <map>
#include <optional>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "util/faults.hpp"

#include "dispatch/stream.hpp"
#include "dispatch/wire.hpp"
#include "scenario/job.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "service/socket.hpp"
#include "sim/executor.hpp"

namespace hoval::service {

namespace {

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// The non-blocking self-pipe progress callbacks use to wake the poll
/// loop.  Declared before the Executor in Impl so it outlives the pool
/// drain — callbacks may write to it until the last campaign finishes.
struct WakePipe {
  int read_fd = -1;
  int write_fd = -1;
  WakePipe() {
    int fds[2];
    if (pipe(fds) != 0)
      throw ServiceError(std::string("pipe: ") + std::strerror(errno));
    read_fd = fds[0];
    write_fd = fds[1];
    set_nonblocking(read_fd);
    set_nonblocking(write_fd);
  }
  ~WakePipe() {
    close(read_fd);
    close(write_fd);
  }
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;
};

struct Client {
  using Clock = std::chrono::steady_clock;

  dispatch::FrameDecoder decoder;
  std::string outbox;        ///< framed bytes awaiting POLLOUT
  bool said_hello = false;
  /// Set on a fatal protocol error: stop reading, flush the outbox (which
  /// ends with the error frame), then close.
  bool doomed = false;
  /// Set by the degradation checks (deadline expiry, outbox overflow):
  /// close without ceremony at the end of the loop iteration — these
  /// clients are unresponsive, an error frame would just sit unflushed.
  const char* drop_reason = nullptr;
  bool drop_is_overflow = false;
  Clock::time_point connected_at{};  ///< hello deadline anchor
  Clock::time_point last_input{};    ///< idle deadline anchor
};

struct PendingJob {
  QueuedJob meta;
  bool progress_wanted = false;
  Job job;
  std::string cache_key;
};

struct ActiveJob {
  int client_fd = -1;
  int id = -1;
  bool cancel_requested = false;
  /// Client gone: collect and discard the result, never cache it.
  bool discarded = false;
  std::string cache_key;
  /// Pumped by collect_ready() each tick; never blocks the loop.
  std::unique_ptr<JobRunner> runner;
};

}  // namespace

struct Server::Impl {
  ServerConfig config;
  ListenSocket listener;
  WakePipe wake;

  std::atomic<std::uint64_t> clients_accepted{0};
  std::atomic<std::uint64_t> jobs_submitted{0};
  std::atomic<std::uint64_t> jobs_completed{0};
  std::atomic<std::uint64_t> jobs_failed{0};
  std::atomic<std::uint64_t> jobs_cancelled{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> cache_evictions{0};
  std::atomic<std::uint64_t> jobs_shed{0};
  std::atomic<std::uint64_t> clients_timed_out{0};
  std::atomic<std::uint64_t> clients_overflowed{0};
  std::atomic<bool> stop_flag{false};

  ResultCache cache;
  SchedulerPolicy policy;
  std::uint64_t next_seq = 0;
  Executor executor;

  std::map<int, Client> clients;
  std::vector<PendingJob> pending;
  std::list<ActiveJob> active;

  explicit Impl(ServerConfig cfg)
      : config(std::move(cfg)),
        listener(listen_socket(config.address)),
        cache(config.cache_bytes),
        executor(config.executor_threads) {
    if (config.max_active_jobs < 1) config.max_active_jobs = 1;
    policy.small_job_cost = config.small_job_runs;
    set_nonblocking(listener.fd());
  }

  /// No listener: the loop serves `connected_fd` alone and ends with it.
  Impl(ServerConfig cfg, int connected_fd)
      : config(std::move(cfg)),
        cache(config.cache_bytes),
        executor(config.executor_threads) {
    if (config.max_active_jobs < 1) config.max_active_jobs = 1;
    policy.small_job_cost = config.small_job_runs;
    add_client(connected_fd);
  }

  void log(const std::string& line) {
    if (config.log) config.log(line);
  }

  void sync_cache_stats() {
    const ResultCache::Stats s = cache.stats();
    cache_hits.store(s.hits, std::memory_order_relaxed);
    cache_misses.store(s.misses, std::memory_order_relaxed);
    cache_evictions.store(s.evictions, std::memory_order_relaxed);
  }

  // --- outbound ------------------------------------------------------------

  void send_payload(int fd, Client& client, std::string_view payload) {
    client.outbox += dispatch::encode_frame(payload);
    flush(fd, client);
    // The cap is checked after the flush attempt: only bytes the socket
    // genuinely will not take count against the client.
    if (config.max_outbox_bytes > 0 && !client.drop_reason &&
        client.outbox.size() > config.max_outbox_bytes) {
      client.drop_reason = "outbox overflow";
      client.drop_is_overflow = true;
    }
  }

  /// Writes as much of the outbox as the socket takes.  Returns false when
  /// the connection is dead (caller must disconnect).
  bool flush(int fd, Client& client) {
    while (!client.outbox.empty()) {
      const ssize_t n = faults::sys_write(fd, client.outbox.data(),
                                          client.outbox.size());
      if (n > 0) {
        client.outbox.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
    return true;
  }

  void fatal_protocol_error(int fd, Client& client, const std::string& what) {
    log("client " + std::to_string(fd) + ": protocol error: " + what);
    send_payload(fd, client, encode_error(-1, what));
    client.doomed = true;
  }

  // --- job lifecycle -------------------------------------------------------

  bool has_unanswered(int fd, int id) const {
    for (const PendingJob& job : pending)
      if (job.meta.client == fd && job.meta.id == id) return true;
    for (const ActiveJob& job : active)
      if (job.client_fd == fd && job.id == id && !job.discarded) return true;
    return false;
  }

  void handle_submit(int fd, Client& client, ClientMessage&& message) {
    if (has_unanswered(fd, message.id)) {
      fatal_protocol_error(fd, client,
                           "duplicate id " + std::to_string(message.id) +
                               " among unanswered jobs");
      return;
    }
    jobs_submitted.fetch_add(1, std::memory_order_relaxed);

    PendingJob job;
    job.meta.seq = next_seq++;
    job.meta.client = fd;
    job.meta.id = message.id;
    job.progress_wanted = message.progress;
    try {
      job.job = Job::from_json(message.sweep, message.spec);
      job.cache_key = job_cache_key(job.job);
      job.meta.cost = job_cost(job.job);
    } catch (const std::exception& e) {
      jobs_failed.fetch_add(1, std::memory_order_relaxed);
      send_payload(fd, client, encode_error(message.id, e.what()));
      return;
    }

    if (const auto hit = cache.lookup(job.cache_key)) {
      sync_cache_stats();
      jobs_completed.fetch_add(1, std::memory_order_relaxed);
      send_payload(fd, client, encode_result_text(message.id, true, *hit));
      return;
    }
    sync_cache_stats();
    // Bounded admission: shed instead of queuing without limit.  A cache
    // hit above is still served — it costs no runs — and the `busy` error
    // carries a retry hint; resubmitting the identical spec is idempotent,
    // so a well-behaved client just comes back.
    if (config.max_pending_jobs > 0 &&
        pending.size() >= static_cast<std::size_t>(config.max_pending_jobs)) {
      jobs_shed.fetch_add(1, std::memory_order_relaxed);
      log("job " + std::to_string(message.id) + " from client " +
          std::to_string(fd) + " shed: " + std::to_string(pending.size()) +
          " jobs queued (retry_after_ms=" +
          std::to_string(config.busy_retry_ms) + ")");
      send_payload(fd, client,
                   encode_error(message.id,
                                "busy: admission queue is full, retry later",
                                std::max(0, config.busy_retry_ms)));
      return;
    }
    pending.push_back(std::move(job));
    admit_jobs();
  }

  void handle_cancel(int fd, Client& client, const ClientMessage& message) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].meta.client != fd || pending[i].meta.id != message.id)
        continue;
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
      send_payload(fd, client, encode_error(message.id, "cancelled"));
      return;
    }
    for (ActiveJob& job : active) {
      if (job.client_fd != fd || job.id != message.id || job.discarded)
        continue;
      if (!job.cancel_requested) {
        job.cancel_requested = true;
        cancel_job(job);
        jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    // Unknown id: most likely the result frame and the cancel crossed on
    // the wire; silently ignore, as the protocol comment promises.
  }

  static void cancel_job(ActiveJob& job) { job.runner->cancel(); }

  /// Admits queued jobs while slots are free, in scheduler-policy order.
  void admit_jobs() {
    while (active.size() <
               static_cast<std::size_t>(config.max_active_jobs) &&
           !pending.empty()) {
      std::unordered_map<int, int> active_per_client;
      for (const ActiveJob& job : active)
        if (!job.discarded) ++active_per_client[job.client_fd];
      std::vector<QueuedJob> metas;
      metas.reserve(pending.size());
      for (const PendingJob& job : pending) metas.push_back(job.meta);
      const std::size_t index = pick_next(metas, active_per_client, policy);

      PendingJob job = std::move(pending[index]);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(index));
      try {
        start_job(std::move(job));
      } catch (const std::exception& e) {
        jobs_failed.fetch_add(1, std::memory_order_relaxed);
        const auto it = clients.find(job.meta.client);
        if (it != clients.end())
          send_payload(it->first, it->second,
                       encode_error(job.meta.id, e.what()));
      }
    }
  }

  /// Resolves and submits one job's first wave; collect_ready() pumps the
  /// rest.  Progress wakeups ride the loop's self-pipe.
  /// \throws ScenarioError / RefineError on an unresolvable spec (nothing
  /// submitted).
  void start_job(PendingJob job) {
    ActiveJob admitted;
    admitted.client_fd = job.meta.client;
    admitted.id = job.meta.id;
    admitted.cache_key = std::move(job.cache_key);
    std::function<void()> on_dirty;
    if (job.progress_wanted)
      on_dirty = [wake_fd = wake.write_fd] {
        // The pipe is non-blocking; a full pipe already guarantees a
        // pending wakeup.
        const char byte = 1;
        [[maybe_unused]] const ssize_t n = ::write(wake_fd, &byte, 1);
      };
    admitted.runner = std::make_unique<JobRunner>(
        std::move(job.job), executor, job.progress_wanted, std::move(on_dirty));
    log("job " + std::to_string(admitted.id) + " from client " +
        std::to_string(admitted.client_fd) + " started (" +
        std::to_string(admitted.runner->total_runs()) + " runs submitted)");
    active.push_back(std::move(admitted));
  }

  void emit_progress() {
    for (ActiveJob& job : active) {
      if (job.discarded || !job.runner->take_dirty()) continue;
      const auto it = clients.find(job.client_fd);
      if (it != clients.end() && !it->second.doomed)
        send_payload(it->first, it->second,
                     encode_progress(job.id, job.runner->completed_runs(),
                                     job.runner->total_runs()));
    }
  }

  void collect_ready() {
    for (auto it = active.begin(); it != active.end();) {
      std::optional<JobResult> result;
      std::string failure;
      try {
        if (!it->runner->pump()) {
          ++it;
          continue;
        }
        result = it->runner->take();
      } catch (const std::exception& e) {
        failure = e.what();
        if (failure.empty()) failure = "campaign failed";
      }
      finish_job(*it, result, failure);
      it = active.erase(it);
    }
    admit_jobs();
  }

  void finish_job(const ActiveJob& job, const std::optional<JobResult>& result,
                  const std::string& failure) {
    if (job.discarded) return;  // client gone; nothing to answer or cache
    const auto client_it = clients.find(job.client_fd);
    if (client_it == clients.end()) return;
    Client& client = client_it->second;

    if (!failure.empty()) {
      jobs_failed.fetch_add(1, std::memory_order_relaxed);
      send_payload(job.client_fd, client, encode_error(job.id, failure));
      return;
    }
    if (job.cancel_requested || result->cancelled()) {
      // Counted in jobs_cancelled when the cancel landed; a partial result
      // is never cached and never reported as a result.
      send_payload(job.client_fd, client, encode_error(job.id, "cancelled"));
      return;
    }

    const std::string text = result->to_json().dump();
    cache.insert(job.cache_key, text);
    sync_cache_stats();
    jobs_completed.fetch_add(1, std::memory_order_relaxed);
    send_payload(job.client_fd, client,
                 encode_result_text(job.id, false, text));
    log("job " + std::to_string(job.id) + " for client " +
        std::to_string(job.client_fd) + " completed (" +
        std::to_string(text.size()) + " result bytes)");
  }

  // --- connection lifecycle ------------------------------------------------

  void accept_clients() {
    for (;;) {
      const int fd = accept(listener.fd(), nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or a transient accept failure: poll again
      }
      add_client(fd);
    }
  }

  void add_client(int fd) {
    set_nonblocking(fd);
    clients_accepted.fetch_add(1, std::memory_order_relaxed);
    Client& client = clients.emplace(fd, Client{}).first->second;
    client.connected_at = client.last_input = Client::Clock::now();
    log("client " + std::to_string(fd) + " connected");
  }

  void disconnect(int fd) {
    const auto it = clients.find(fd);
    if (it == clients.end()) return;
    for (ActiveJob& job : active) {
      if (job.client_fd != fd || job.discarded) continue;
      job.discarded = true;
      cancel_job(job);
      jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [fd](const PendingJob& job) {
                                   return job.meta.client == fd;
                                 }),
                  pending.end());
    clients.erase(it);
    close(fd);
    log("client " + std::to_string(fd) + " disconnected");
    admit_jobs();
  }

  /// Handles one decoded client message.  Returns false when the client
  /// was doomed by a protocol violation.
  void handle_message(int fd, Client& client, ClientMessage&& message) {
    if (!client.said_hello) {
      if (message.type != ClientMessage::Type::kHello) {
        fatal_protocol_error(fd, client, "first message must be \"hello\"");
      } else if (message.version != kProtocolVersion) {
        fatal_protocol_error(
            fd, client,
            "protocol version mismatch: server speaks " +
                std::to_string(kProtocolVersion) + ", client sent " +
                std::to_string(message.version));
      } else {
        client.said_hello = true;
        send_payload(fd, client, encode_server_hello());
      }
      return;
    }
    switch (message.type) {
      case ClientMessage::Type::kHello:
        fatal_protocol_error(fd, client, "duplicate \"hello\"");
        break;
      case ClientMessage::Type::kSubmit:
        handle_submit(fd, client, std::move(message));
        break;
      case ClientMessage::Type::kCancel:
        handle_cancel(fd, client, message);
        break;
    }
  }

  /// Reads everything the socket has, decodes frames, dispatches messages.
  /// Returns false when the client must be disconnected.
  bool read_input(int fd, Client& client) {
    char buffer[64 * 1024];
    for (;;) {
      const ssize_t n = faults::sys_read(fd, buffer, sizeof(buffer));
      if (n > 0) {
        client.last_input = Client::Clock::now();
        client.decoder.feed(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {  // orderly shutdown from the client
        // A half-closed peer can still read why its last frame was lost.
        if (client.decoder.pending_bytes() > 0)
          fatal_protocol_error(fd, client, "stream ended mid-frame");
        return false;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    try {
      while (!client.doomed) {
        const auto frame = client.decoder.next();
        if (!frame) break;
        handle_message(fd, client, parse_client_message(*frame));
      }
    } catch (const dispatch::WireError& e) {
      fatal_protocol_error(fd, client, e.what());
    } catch (const ServiceError& e) {
      fatal_protocol_error(fd, client, e.what());
    }
    return true;
  }

  void drain_wake() {
    char buffer[256];
    while (::read(wake.read_fd, buffer, sizeof(buffer)) > 0) {
    }
  }

  // --- graceful degradation ------------------------------------------------

  bool client_has_jobs(int fd) const {
    for (const PendingJob& job : pending)
      if (job.meta.client == fd) return true;
    for (const ActiveJob& job : active)
      if (job.client_fd == fd && !job.discarded) return true;
    return false;
  }

  /// The client's currently-armed deadline, or time_point::max() when it
  /// has none.  Two deadlines exist: hello (a connection must identify
  /// itself promptly — the slow-loris guard) and idle (a jobless, silent
  /// client does not get to hold a connection slot forever).  A client
  /// with queued or active jobs is never idle.
  Client::Clock::time_point client_deadline(int fd, const Client& client) const {
    using Ms = std::chrono::milliseconds;
    if (!client.said_hello) {
      if (config.hello_timeout_ms > 0)
        return client.connected_at + Ms(config.hello_timeout_ms);
      return Client::Clock::time_point::max();
    }
    if (config.idle_timeout_ms > 0 && !client_has_jobs(fd))
      return client.last_input + Ms(config.idle_timeout_ms);
    return Client::Clock::time_point::max();
  }

  /// Folds the earliest client deadline into the poll timeout.
  int fold_deadline_timeout(int timeout_ms,
                            Client::Clock::time_point now) const {
    auto earliest = Client::Clock::time_point::max();
    for (const auto& entry : clients)
      earliest = std::min(earliest, client_deadline(entry.first, entry.second));
    if (earliest == Client::Clock::time_point::max()) return timeout_ms;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(earliest - now);
    const int until = static_cast<int>(
        std::clamp<long long>(left.count() + 1, 0, 60'000));
    return timeout_ms < 0 ? until : std::min(timeout_ms, until);
  }

  void enforce_deadlines(Client::Clock::time_point now) {
    for (auto& entry : clients) {
      Client& client = entry.second;
      if (client.drop_reason) continue;
      if (now >= client_deadline(entry.first, client))
        client.drop_reason =
            client.said_hello ? "idle timeout" : "hello timeout";
    }
  }

  /// Closes clients marked by the degradation checks — only the offending
  /// client; its jobs are cancelled by the normal disconnect path.
  void sweep_drops() {
    std::vector<int> to_drop;
    for (const auto& entry : clients)
      if (entry.second.drop_reason) to_drop.push_back(entry.first);
    for (const int fd : to_drop) {
      const Client& client = clients.at(fd);
      (client.drop_is_overflow ? clients_overflowed : clients_timed_out)
          .fetch_add(1, std::memory_order_relaxed);
      log("client " + std::to_string(fd) + " dropped: " + client.drop_reason +
          " (outbox " + std::to_string(client.outbox.size()) + " bytes)");
      disconnect(fd);
    }
  }

  // --- the loop ------------------------------------------------------------

  void run() {
    dispatch::ScopedSigpipeIgnore sigpipe;
    std::vector<pollfd> fds;
    std::vector<std::pair<int, short>> client_events;
    // Without a listener the one adopted connection is the server's life.
    while (!stop_flag.load(std::memory_order_acquire) &&
           (listener.valid() || !clients.empty())) {
      fds.clear();
      fds.push_back(pollfd{listener.fd(), POLLIN, 0});
      fds.push_back(pollfd{wake.read_fd, POLLIN, 0});
      for (const auto& entry : clients) {
        short events = 0;
        if (!entry.second.doomed) events |= POLLIN;
        if (!entry.second.outbox.empty()) events |= POLLOUT;
        fds.push_back(pollfd{entry.first, events, 0});
      }
      // Completion has no notification channel (by design: ready() is a
      // cheap atomic poll), so tick while anything is active; client
      // deadlines bound the sleep so expiries are enforced on time.
      const int timeout_ms = fold_deadline_timeout(active.empty() ? -1 : 10,
                                                   Client::Clock::now());
      const int ready =
          dispatch::poll_fds(fds.data(), fds.size(), timeout_ms);
      if (ready < 0)
        throw ServiceError(std::string("poll: ") + std::strerror(errno));
      if (stop_flag.load(std::memory_order_acquire)) break;

      if (fds[1].revents & POLLIN) drain_wake();
      if (fds[0].revents & POLLIN) accept_clients();

      // Snapshot (fd, revents) first: handling one client can mutate the
      // clients map (disconnects) and must not walk a stale pollfd list.
      client_events.clear();
      for (std::size_t i = 2; i < fds.size(); ++i)
        if (fds[i].revents != 0)
          client_events.emplace_back(fds[i].fd, fds[i].revents);
      for (const auto& [fd, revents] : client_events) {
        auto it = clients.find(fd);
        if (it == clients.end()) continue;
        if ((revents & POLLOUT) && !flush(fd, it->second)) {
          disconnect(fd);
          continue;
        }
        if (revents & POLLIN) {
          if (!read_input(fd, it->second)) {
            disconnect(fd);
            continue;
          }
        } else if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
          disconnect(fd);
          continue;
        }
      }

      emit_progress();
      collect_ready();
      enforce_deadlines(Client::Clock::now());
      sweep_drops();

      // Doomed clients linger only until their error frame is flushed.
      std::vector<int> to_close;
      for (const auto& entry : clients)
        if (entry.second.doomed && entry.second.outbox.empty())
          to_close.push_back(entry.first);
      for (const int fd : to_close) disconnect(fd);
    }
    teardown();
  }

  void teardown() {
    for (ActiveJob& job : active) {
      cancel_job(job);
      if (!job.discarded && !job.cancel_requested)
        jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
    }
    for (ActiveJob& job : active) {
      try {
        job.runner->wait();
      } catch (const std::exception&) {
        // A failing campaign during shutdown has no one left to tell.
      }
    }
    active.clear();
    pending.clear();
    for (const auto& entry : clients) close(entry.first);
    clients.clear();
    log("server stopped");
  }
};

Server::Server(ServerConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Server::Server(ServerConfig config, int connected_fd)
    : impl_(std::make_unique<Impl>(std::move(config), connected_fd)) {}

Server::~Server() = default;

void Server::run() { impl_->run(); }

void Server::stop() {
  // Async-signal-safe: an atomic store plus one write to the wake pipe.
  impl_->stop_flag.store(true, std::memory_order_release);
  const char byte = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(impl_->wake.write_fd, &byte, 1);
}

const std::string& Server::address() const {
  return impl_->listener.address();
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.clients_accepted =
      impl_->clients_accepted.load(std::memory_order_relaxed);
  stats.jobs_submitted = impl_->jobs_submitted.load(std::memory_order_relaxed);
  stats.jobs_completed = impl_->jobs_completed.load(std::memory_order_relaxed);
  stats.jobs_failed = impl_->jobs_failed.load(std::memory_order_relaxed);
  stats.jobs_cancelled =
      impl_->jobs_cancelled.load(std::memory_order_relaxed);
  stats.cache_hits = impl_->cache_hits.load(std::memory_order_relaxed);
  stats.cache_misses = impl_->cache_misses.load(std::memory_order_relaxed);
  stats.cache_evictions =
      impl_->cache_evictions.load(std::memory_order_relaxed);
  stats.jobs_shed = impl_->jobs_shed.load(std::memory_order_relaxed);
  stats.clients_timed_out =
      impl_->clients_timed_out.load(std::memory_order_relaxed);
  stats.clients_overflowed =
      impl_->clients_overflowed.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace hoval::service
