#pragma once

/// \file server.hpp
/// hovald's campaign service: a single-threaded poll loop accepting
/// wire-framed protocol messages (service/protocol.hpp) over a Unix or
/// TCP socket (service/socket.hpp) — or over one adopted, already
/// connected socket (`hovald --stdio` and every hoval_dispatch backend,
/// dispatch/dispatch.hpp) — scheduling submitted scenarios and
/// sweeps onto one shared persistent Executor, and streaming results —
/// and, on request, batched progress — back per client.
///
/// Division of labour: the event loop owns all connection and job state
/// and is the only thread that touches it; the Executor's pool runs the
/// campaigns.  The two meet in exactly two lock-free places — campaign
/// progress callbacks store per-point counters into a shared
/// ProgressState and nudge the loop through a non-blocking wake pipe, and
/// the loop polls CampaignHandle::ready() to collect finished jobs.  The
/// simulator's determinism guarantee (identical spec + seed => identical
/// bytes at any thread count or interleaving) is what makes the served
/// results byte-comparable to local runs and makes the result cache
/// (service/cache.hpp) sound.
///
/// Scheduling: at most ServerConfig::max_active_jobs jobs execute at
/// once; the rest queue and are admitted by the fair-share / small-first
/// policy in service/scheduler.hpp.  A client disconnecting cancels its
/// in-flight jobs (the executor reclaims the workers) and drops its
/// queued ones without disturbing other clients.
///
/// Graceful degradation: the admission queue is bounded — a submit
/// arriving with max_pending_jobs already queued is answered with a
/// `busy` error frame carrying a retry_after_ms hint instead of growing
/// the queue without limit (resubmission is idempotent thanks to the
/// spec-hash cache, so shedding is safe).  Per-client deadlines drop
/// slow-loris peers: a connection that never completes its hello within
/// hello_timeout_ms, or sits idle with no jobs for idle_timeout_ms, is
/// closed.  A per-client outbox byte cap bounds what one unreading
/// client can pin in memory; exceeding it drops only that client.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace hoval::service {

struct ServerConfig {
  /// Listen address: '/'-containing = Unix socket path, else HOST:PORT
  /// (port 0 picks an ephemeral port; see Server::address()).
  std::string address;
  int executor_threads = 0;  ///< shared pool size; 0 = hardware threads
  int max_active_jobs = 2;   ///< concurrently executing jobs
  /// Jobs estimated at most this many runs jump the queue (scheduler.hpp).
  long long small_job_runs = 1000;
  std::size_t cache_bytes = 64u << 20;  ///< result-cache budget

  // --- graceful degradation (0 or negative disables each knob) ---
  /// Queued (not yet active) jobs across all clients before submits are
  /// shed with a `busy` error frame instead of queued.
  int max_pending_jobs = 64;
  /// The retry_after_ms hint sent with a `busy` shed.
  int busy_retry_ms = 250;
  /// A connection must complete its hello within this deadline.
  int hello_timeout_ms = 10'000;
  /// A client with no queued/active jobs and no input for this long is
  /// dropped (clients waiting on a submitted job are never idle).
  int idle_timeout_ms = 300'000;
  /// Unflushed response bytes one client may pin before it is dropped.
  std::size_t max_outbox_bytes = 64u << 20;

  /// Optional log sink (one line per call, no trailing newline).
  std::function<void(const std::string&)> log;
};

/// Monotonic counters, readable from any thread while the server runs.
struct ServerStats {
  std::uint64_t clients_accepted = 0;
  std::uint64_t jobs_submitted = 0;   ///< accepted submits (cache hits too)
  std::uint64_t jobs_completed = 0;   ///< answered with a result frame
  std::uint64_t jobs_failed = 0;      ///< answered with an error frame
  std::uint64_t jobs_cancelled = 0;   ///< cancel message or disconnect
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t jobs_shed = 0;           ///< submits answered with `busy`
  std::uint64_t clients_timed_out = 0;   ///< hello/idle deadline drops
  std::uint64_t clients_overflowed = 0;  ///< outbox byte-cap drops
};

class Server {
 public:
  /// Binds and listens immediately (so address() is valid before run()),
  /// and spins up the executor pool.  \throws ServiceError on bind
  /// failure.
  explicit Server(ServerConfig config);
  /// Serves one already-connected stream socket instead of listening
  /// (`hovald --stdio`, the dispatcher's backends).  Takes ownership of
  /// `connected_fd`; config.address is ignored and address() is empty.
  /// run() returns once that connection is gone, as well as on stop().
  Server(ServerConfig config, int connected_fd);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the event loop until stop() (or, on an adopted connection,
  /// until the peer is gone); call at most once.  On return all
  /// connections are closed and all in-flight campaigns cancelled and
  /// drained.
  void run();

  /// Requests shutdown.  Async-signal-safe (an atomic store plus a pipe
  /// write) and callable from any thread — this is what a SIGTERM handler
  /// should call.
  void stop();

  /// The effective listen address (the bound port when :0 was requested);
  /// empty on an adopted connection.
  const std::string& address() const;

  /// Snapshot of the counters; callable from any thread.
  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hoval::service
