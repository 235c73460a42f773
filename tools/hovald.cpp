/// hovald — the hoval campaign service.  Listens on a Unix-domain or TCP
/// socket, accepts scenario / sweep submissions over the framed protocol
/// (src/service/protocol.hpp), runs them on one shared Executor pool with
/// fair-share scheduling, and serves repeat submissions from the
/// spec-hash result cache without executing a run.
///
/// Usage:
///   hovald (--listen /tmp/hovald.sock | --stdio) [--threads W]
///          [--max-active J] [--cache-bytes B] [--small-runs R]
///          [--max-pending Q] [--busy-retry-ms MS] [--hello-timeout-ms MS]
///          [--idle-timeout-ms MS] [--max-outbox-bytes B] [--quiet]
///
/// The listen address accepts the same grammar as `hoval_cli --connect`:
/// a string containing '/' is a Unix socket path, anything else is
/// HOST:PORT (":0" picks an ephemeral port, printed on startup).
/// SIGTERM / SIGINT shut the daemon down cleanly: in-flight jobs are
/// cancelled, the pool drains, and the process exits 0.
///
/// --stdio serves one already-connected socket on fd 0, inetd-style, and
/// exits 0 once the peer hangs up.  This is how `hoval_dispatch
/// --worker-cmd "hovald --stdio --threads 1"` runs its backends.  The
/// peer owns the connection's lifetime, so the hello and idle deadlines
/// default to off in this mode (the flags still set them).
///
/// Load shedding: once --max-pending jobs are queued, further submits are
/// answered with a `busy` error frame carrying the --busy-retry-ms hint;
/// clients with retry policies (hoval_cli --retries) resubmit and — the
/// cache being spec-hash keyed — get byte-identical results.  Slow-loris
/// and unreading clients fall to the hello/idle deadlines and the outbox
/// byte cap.  HOVAL_FAULT_PLAN arms deterministic fault injection on the
/// daemon's own socket I/O (README "Chaos testing").

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include <sys/stat.h>

#include "hoval.hpp"

namespace {

hoval::service::Server* g_server = nullptr;

void handle_signal(int) {
  // Server::stop() is async-signal-safe by contract (atomic store + pipe
  // write); everything else happens on the event-loop thread.
  if (g_server) g_server->stop();
}

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " (--listen ADDR | --stdio) [options]\n"
      << "  --listen ADDR    unix socket path (contains '/') or HOST:PORT\n"
      << "  --stdio          serve the connected socket on fd 0, exit when\n"
      << "                   the peer hangs up (deadlines default to off)\n"
      << "  --threads W      executor pool size, 0 = all cores (default 0)\n"
      << "  --max-active J   jobs executing concurrently     (default 2)\n"
      << "  --cache-bytes B  result-cache budget in bytes    (default 64MiB)\n"
      << "  --small-runs R   priority-class cutoff in runs   (default 1000)\n"
      << "  --max-pending Q  queued jobs before submits are shed with a\n"
      << "                   `busy` frame, <=0 unbounded     (default 64)\n"
      << "  --busy-retry-ms MS    retry_after_ms hint on a shed (default 250)\n"
      << "  --hello-timeout-ms MS deadline for a connection's hello,\n"
      << "                   <=0 disables                    (default 10000)\n"
      << "  --idle-timeout-ms MS  drop job-less silent clients after this,\n"
      << "                   <=0 disables                    (default 300000)\n"
      << "  --max-outbox-bytes B  unflushed bytes one client may pin,\n"
      << "                   <=0 unbounded                   (default 64MiB)\n"
      << "  --quiet          suppress per-connection logging\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  hoval::service::ServerConfig config;
  bool quiet = false;
  bool stdio = false;
  std::optional<int> hello_timeout_ms, idle_timeout_ms;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--listen") config.address = next();
      else if (arg == "--stdio") stdio = true;
      else if (arg == "--threads") config.executor_threads = std::stoi(next());
      else if (arg == "--max-active") config.max_active_jobs = std::stoi(next());
      else if (arg == "--cache-bytes")
        config.cache_bytes = static_cast<std::size_t>(std::stoull(next()));
      else if (arg == "--small-runs") config.small_job_runs = std::stoll(next());
      else if (arg == "--max-pending") config.max_pending_jobs = std::stoi(next());
      else if (arg == "--busy-retry-ms") config.busy_retry_ms = std::stoi(next());
      else if (arg == "--hello-timeout-ms") hello_timeout_ms = std::stoi(next());
      else if (arg == "--idle-timeout-ms") idle_timeout_ms = std::stoi(next());
      else if (arg == "--max-outbox-bytes") {
        const long long bytes = std::stoll(next());
        config.max_outbox_bytes =
            bytes <= 0 ? 0 : static_cast<std::size_t>(bytes);
      }
      else if (arg == "--quiet") quiet = true;
      else usage(argv[0]);
    } catch (const std::exception&) {
      std::cerr << "error: malformed numeric option for " << arg << "\n";
      return 2;
    }
  }
  if (stdio && !config.address.empty()) {
    std::cerr << "error: --stdio and --listen are mutually exclusive\n";
    return 2;
  }
  if (!stdio && config.address.empty()) {
    std::cerr << "error: --listen ADDR or --stdio is required\n";
    usage(argv[0]);
  }
  struct stat input {};
  if (stdio && (::fstat(0, &input) != 0 || !S_ISSOCK(input.st_mode))) {
    std::cerr << "error: --stdio needs a connected socket on fd 0\n";
    return 2;
  }
  config.hello_timeout_ms =
      hello_timeout_ms.value_or(stdio ? 0 : config.hello_timeout_ms);
  config.idle_timeout_ms =
      idle_timeout_ms.value_or(stdio ? 0 : config.idle_timeout_ms);
  if (!quiet)
    config.log = [](const std::string& line) {
      std::cerr << "hovald: " << line << "\n";
    };

  try {
    if (hoval::faults::FaultInjector* injector =
            hoval::faults::install_fault_plan_from_env())
      std::cerr << "hovald: chaos: fault plan active: "
                << injector->plan().to_string() << "\n";
  } catch (const hoval::faults::FaultError& e) {
    std::cerr << "error: HOVAL_FAULT_PLAN: " << e.what() << "\n";
    return 2;
  }

  try {
    hoval::service::Server server =
        stdio ? hoval::service::Server(std::move(config), 0)
              : hoval::service::Server(std::move(config));
    g_server = &server;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    if (!stdio)
      std::cerr << "hovald: listening on " << server.address() << "\n";
    server.run();
    const hoval::service::ServerStats stats = server.stats();
    std::cerr << "hovald: served " << stats.jobs_completed << " job(s) ("
              << stats.cache_hits << " cache hit(s)), " << stats.jobs_failed
              << " failed, " << stats.jobs_cancelled << " cancelled, "
              << stats.jobs_shed << " shed; " << stats.clients_timed_out
              << " client(s) timed out, " << stats.clients_overflowed
              << " overflowed\n";
    g_server = nullptr;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hovald: error: " << e.what() << "\n";
    return 1;
  }
}
