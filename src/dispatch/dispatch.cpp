#include "dispatch/dispatch.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dispatch/stream.hpp"
#include "dispatch/wire.hpp"
#include "scenario/run.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sim/result_json.hpp"
#include "util/format.hpp"

namespace hoval::dispatch {

namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kReapGrace = std::chrono::milliseconds(kWorkerReapGraceMs);
/// Poll interval while a lost backend awaits its reap (child exit has no
/// descriptor to poll).
constexpr int kReapPollMs = 1;

/// SIGKILLs a backend and whatever it started: each backend leads its own
/// process group, so a `--worker-cmd` wrapper's children die with it.
void kill_backend(pid_t pid) {
  if (::kill(-pid, SIGKILL) != 0) ::kill(pid, SIGKILL);
}

/// Reaps `pid` if it has exited; once `kill_at` has passed, SIGKILLs it
/// and waits.  Returns false while the child is still running inside its
/// grace period.  `status` is whichever exit status came first: the
/// child's own, or the kill's.
bool try_reap(pid_t pid, Clock::time_point kill_at, int& status) {
  pid_t got = ::waitpid(pid, &status, WNOHANG);
  if (got == 0) {
    if (Clock::now() < kill_at) return false;
    kill_backend(pid);
    while ((got = ::waitpid(pid, &status, 0)) < 0 && errno == EINTR) {
    }
  }
  if (got < 0) status = 0;  // already reaped elsewhere: nothing to report
  return true;
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/// Runs a forked backend: a service::Server on the child's end of the
/// socketpair, deadlines off because the dispatcher owns its lifetime.
/// Never returns.
[[noreturn]] void serve_forked_backend(int fd, int threads) {
  int rc = 0;
  try {
    service::ServerConfig config;
    config.executor_threads = threads;
    config.hello_timeout_ms = 0;
    config.idle_timeout_ms = 0;
    service::Server(std::move(config), fd).run();
  } catch (...) {
    rc = 1;  // diagnostic only: the host treats any exit as a lost worker
  }
  std::_Exit(rc);
}

struct WorkerProc {
  int slot = -1;  ///< spawn sequence number (initial workers: 0..N-1)
  pid_t pid = -1;
  int fd = -1;  ///< host end of the socketpair the backend serves
  FrameDecoder decoder;
  bool hello_sent = false;
  bool greeted = false;    ///< the backend's hello arrived
  int current_point = -1;  ///< in-flight point, -1 when idle
  int results_delivered = 0;
  Clock::time_point assigned_at{};
  bool timed_out = false;  ///< host SIGKILLed it for exceeding the timeout
};

/// How the host observed a worker's loss; refined by the child's exit
/// status into the structured reason token.
enum class Loss { kEof, kBadFrame, kWriteFailed, kReadError };

/// A backend whose connection is closed but whose process is not yet
/// reaped.  Its loss is reported, and its point resubmitted, once the
/// exit status is known.
struct LostWorker {
  std::unique_ptr<WorkerProc> worker;
  Loss kind = Loss::kEof;
  std::string detail;
  Clock::time_point kill_at{};  ///< SIGKILL if still running by then
};

/// The whole host: spawn, assign, poll, merge, tolerate.
class Dispatcher {
 public:
  Dispatcher(const SweepSpec& sweep, const DispatchOptions& options)
      : options_(options) {
    // Workers run fixed points; refinement needs the generation loop of
    // refine/driver.hpp, which this host does not drive.  Running only the
    // coarse grid would silently answer a different question.
    if (sweep.refine.enabled)
      throw DispatchError(
          "refined sweeps (refine.enabled) cannot be dispatched; run them "
          "with hoval_cli --sweep, or hoval_cli --connect to a hovald");
    if (options_.workers < 1)
      throw DispatchError("workers must be >= 1");
    if (options_.worker_threads < 0)
      throw DispatchError("worker_threads must be >= 0 (0 = all cores)");
    if (options_.max_point_attempts < 1)
      throw DispatchError("max_point_attempts must be >= 1");
    if (options_.max_respawns < 0)
      throw DispatchError("max_respawns must be >= 0");

    // Expand and resolve every point before the first fork, exactly like
    // run_sweep: an infeasible substitution fails loudly up front instead
    // of bouncing off workers until it is quarantined.  Points are
    // expanded one at a time (SweepSpec::expand_point) and re-expanded at
    // assignment, so the host never holds O(points) documents for huge
    // grids — only the sweep itself.
    const std::size_t point_total = sweep.point_count();
    if (point_total == 0) sweep.expand();  // raises the empty-axis error
    for (std::size_t i = 0; i < point_total; ++i)
      resolve_scenario(sweep.expand_point(i));
    sweep_ = sweep;

    const int count = static_cast<int>(point_total);
    report_.points = count;
    report_.workers = options_.workers;
    report_.results.resize(point_total);
    report_.completed.assign(point_total, false);
    attempts_.assign(point_total, 0);
    last_error_.assign(point_total, "");
    for (int i = 0; i < count; ++i) pending_.push_back(i);
  }

  DispatchReport run() {
    const auto start = Clock::now();
    // Writes to dead workers must surface as EPIPE return values, not kill
    // the host.  Exec'd workers inherit the SIG_IGN disposition, which is
    // exactly right — a worker whose host vanished sees a failed write and
    // exits instead of dying mid-campaign with a half-written frame.
    ScopedSigpipeIgnore sigpipe;
    const int initial =
        std::min(options_.workers, std::max(1, report_.points));
    for (int slot = 0; slot < initial; ++slot) {
      WorkerProc* worker = spawn();
      if (worker) assign_next(*worker);
    }
    while (done_ < report_.points) {
      if (live_.empty() && reaping_.empty() && !ensure_capacity()) {
        quarantine_pending("no workers left (respawn budget exhausted)");
        break;
      }
      poll_once();
    }
    shutdown_workers();
    report_.wall_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return std::move(report_);
  }

 private:
  void log(const std::string& line) const {
    if (options_.log) options_.log(line);
  }

  // --- spawning ------------------------------------------------------------

  WorkerProc* spawn() {
    int ends[2];  // [0]: the host end, [1]: the backend's connection
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, ends) != 0)
      throw DispatchError(std::string("socketpair: ") + std::strerror(errno));
    // The host end must not leak into later-spawned siblings.
    set_cloexec(ends[0]);

    // Everything the child touches is prepared pre-fork: the child of a
    // (possibly multithreaded) host must stick to async-signal-safe calls
    // plus exec.
    //
    // FD_CLOEXEC only applies across exec, so the fork-without-exec child
    // inherits the host ends of every already-live sibling.  If they
    // stayed open, a backend would only see EOF once every later-spawned
    // sibling had exited too (a newest-to-oldest cascade that one wedged
    // backend stalls forever).  Collect them here and close them in the
    // child — ::close is async-signal-safe.
    std::vector<int> sibling_fds;
    sibling_fds.reserve(live_.size());
    for (const auto& other : live_) sibling_fds.push_back(other->fd);
    std::vector<std::string> argv_storage = options_.worker_argv;
    std::vector<char*> argv;
    for (std::string& arg : argv_storage) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(ends[0]);
      ::close(ends[1]);
      throw DispatchError(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      ::setpgid(0, 0);
      ::close(ends[0]);
      for (const int fd : sibling_fds) ::close(fd);
      if (argv_storage.empty())
        serve_forked_backend(ends[1], options_.worker_threads);
      // inetd-style: the exec'd backend serves the socket on fd 0.
      if (ends[1] != 0) {
        ::dup2(ends[1], 0);
        ::close(ends[1]);
      }
      ::execvp(argv[0], argv.data());
      std::_Exit(127);  // exec failed
    }
    ::setpgid(pid, pid);  // either side may win the race; both agree
    ::close(ends[1]);

    auto worker = std::make_unique<WorkerProc>();
    worker->slot = next_slot_++;
    worker->pid = pid;
    worker->fd = ends[0];
    ++report_.workers_spawned;
    log("worker " + std::to_string(worker->slot) + ": spawned (pid " +
        std::to_string(pid) + ")");
    live_.push_back(std::move(worker));
    return live_.back().get();
  }

  /// Keeps the pool at target size while work remains.  Returns false when
  /// nothing could be (re)spawned and no worker is alive.
  bool ensure_capacity() {
    while (spawn_wanted()) {
      const auto now = Clock::now();
      if (now < next_spawn_allowed_) {
        // Crash-loop backoff in force.  With live or reaping workers the
        // poll loop retries after the deadline (next_timeout_ms folds it
        // in); with none there is nothing to service, so sleep it out.
        if (!live_.empty() || !reaping_.empty()) break;
        std::this_thread::sleep_for(next_spawn_allowed_ - now);
      }
      WorkerProc* worker = spawn();
      if (worker) assign_next(*worker);
    }
    return !live_.empty();
  }

  /// A lost backend holds its slot until it is reaped, so at most
  /// `workers` backend processes exist at once.
  bool spawn_wanted() const {
    return static_cast<int>(live_.size() + reaping_.size()) < options_.workers &&
           work_remaining() > static_cast<int>(in_flight_count()) &&
           respawns_available();
  }

  bool respawns_available() const {
    return next_slot_ < options_.workers + options_.max_respawns;
  }

  int work_remaining() const { return report_.points - done_; }

  std::size_t in_flight_count() const {
    std::size_t count = 0;
    for (const auto& worker : live_)
      if (worker->current_point >= 0) ++count;
    return count;
  }

  // --- assignment ----------------------------------------------------------

  enum class Assign {
    kAssigned,    ///< a point is now in flight on this worker
    kIdle,        ///< nothing pending; the worker is alive and idle
    kWorkerLost,  ///< the write failed: fail_worker moved `worker` to reaping_
  };

  /// Hands the next pending point to `worker`.  May fail the worker (a
  /// dead child surfaces as a write error), in which case `worker` has
  /// moved to the reaping list and the caller must not touch it again.
  Assign assign_next(WorkerProc& worker) {
    if (pending_.empty()) return Assign::kIdle;
    const int point = pending_.front();
    pending_.pop_front();
    ++attempts_[static_cast<std::size_t>(point)];
    worker.current_point = point;
    worker.assigned_at = Clock::now();
    // The point index is the job id; the first submit rides with hello.
    std::string frames;
    if (!worker.hello_sent) frames = encode_frame(service::encode_hello());
    worker.hello_sent = true;
    frames += encode_frame(service::encode_submit(
        point, /*sweep=*/false,
        sweep_.expand_point(static_cast<std::size_t>(point)).to_json(),
        /*progress=*/false));
    if (!write_all(worker.fd, frames.data(), frames.size())) {
      fail_worker(worker, Loss::kWriteFailed, "write to worker failed");
      return Assign::kWorkerLost;
    }
    // The test hook fires on the slot's first assignment: the worker is
    // SIGKILLed with this point guaranteed in flight, so the run must
    // exercise resubmission to finish — a deterministic mid-sweep kill.
    if (worker.slot == options_.test_kill_worker && !kill_hook_fired_) {
      kill_hook_fired_ = true;
      log("test hook: SIGKILL worker " + std::to_string(worker.slot));
      kill_backend(worker.pid);
    }
    return Assign::kAssigned;
  }

  // --- failure handling ----------------------------------------------------

  static const char* loss_name(Loss kind) {
    switch (kind) {
      case Loss::kEof: return "eof";
      case Loss::kBadFrame: return "bad-frame";
      case Loss::kWriteFailed: return "write-failed";
      case Loss::kReadError: return "read-error";
    }
    return "lost";
  }

  /// A worker died, hung up or spoke garbage: close its connection and
  /// move it to the reaping list.  The poll loop reaps it without
  /// blocking (SIGKILL after kReapGrace) and then finish_loss reports it.
  /// `worker` leaves live_ and must not be touched again by the caller.
  void fail_worker(WorkerProc& worker, Loss kind, const std::string& detail) {
    ::close(worker.fd);
    worker.fd = -1;
    // A backend that broke the protocol may still be running; its frames
    // are not worth a grace period.
    if (kind == Loss::kBadFrame) kill_backend(worker.pid);
    const auto it =
        std::find_if(live_.begin(), live_.end(),
                     [&worker](const auto& w) { return w.get() == &worker; });
    reaping_.push_back({std::move(*it), kind, detail, Clock::now() + kReapGrace});
    live_.erase(it);
  }

  /// Reaps every lost worker that has exited (or outlived its grace
  /// period) and finishes its loss.
  void reap_lost() {
    for (std::size_t i = 0; i < reaping_.size();) {
      int status = 0;
      if (!try_reap(reaping_[i].worker->pid, reaping_[i].kill_at, status)) {
        ++i;
        continue;
      }
      LostWorker lost = std::move(reaping_[i]);
      reaping_.erase(reaping_.begin() + static_cast<std::ptrdiff_t>(i));
      finish_loss(lost, status);  // may append to reaping_; i stays valid
    }
  }

  /// A reaped worker's loss: log it, resubmit or quarantine its in-flight
  /// point, arm the crash-loop backoff, refill the pool.
  void finish_loss(const LostWorker& lost, int status) {
    const WorkerProc& worker = *lost.worker;
    const std::string& detail = lost.detail;

    // The structured reason: the host's own kill wins (timeout), a frame
    // the host rejected stays bad-frame (the exit status is downstream
    // fallout of closing the pipes), and otherwise the child's exit status
    // is more specific than how the loss happened to surface host-side.
    std::string reason = loss_name(lost.kind);
    if (worker.timed_out) {
      reason = "timeout";
    } else if (lost.kind != Loss::kBadFrame) {
      if (WIFSIGNALED(status))
        reason = "signal=" + std::to_string(WTERMSIG(status));
      else if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
        reason = "exit=" + std::to_string(WEXITSTATUS(status));
    }
    std::string what = "worker " + std::to_string(worker.slot) + " lost (" +
                       reason + (detail.empty() ? "" : ": " + detail) + ")";
    if (worker.timed_out)
      what += ", timed out after " +
              format_double(options_.point_timeout_seconds, 1) + "s/attempt";

    const int point = worker.current_point;
    const int slot = worker.slot;
    const bool delivered = worker.results_delivered > 0;
    ++report_.workers_failed;
    {
      std::ostringstream line;
      line << "worker-lost slot=" << slot << " pid=" << worker.pid
           << " reason=" << reason << " point=";
      if (point >= 0)
        line << point << " attempt="
             << attempts_[static_cast<std::size_t>(point)] << "/"
             << options_.max_point_attempts;
      else
        line << "none";
      line << " detail=\"" << detail << "\"";
      log(line.str());
    }

    // Crash-loop accounting: a worker that delivered results before dying
    // restarts the streak at one; back-to-back barren deaths escalate the
    // spawn delay exponentially.
    crash_streak_ = delivered ? 1 : crash_streak_ + 1;
    if (options_.respawn_backoff_initial_ms > 0 && crash_streak_ >= 2) {
      long long delay = options_.respawn_backoff_initial_ms;
      for (int i = 2; i < crash_streak_ &&
                      delay < options_.respawn_backoff_max_ms;
           ++i)
        delay *= 2;
      delay = std::min<long long>(
          delay, std::max(1, options_.respawn_backoff_max_ms));
      next_spawn_allowed_ = Clock::now() + std::chrono::milliseconds(delay);
      log("respawn backoff: " + std::to_string(delay) + "ms (streak " +
          std::to_string(crash_streak_) + ")");
    }

    if (point >= 0) {
      const auto index = static_cast<std::size_t>(point);
      last_error_[index] = what;
      if (attempts_[index] >= options_.max_point_attempts) {
        quarantine(point, what);
      } else {
        pending_.push_front(point);
        ++report_.resubmitted_points;
        log("point " + std::to_string(point) + ": resubmitting (attempt " +
            std::to_string(attempts_[index] + 1) + "/" +
            std::to_string(options_.max_point_attempts) + ")");
      }
    }
    if (work_remaining() > 0 && !ensure_capacity() && live_.empty()) {
      // Nothing alive and nothing spawnable — run() quarantines the rest.
      return;
    }
    // A resubmitted point may need an already-idle worker (everyone else
    // might be deep in a long point).  Pick the candidate before calling
    // assign_next: it can erase from live_ (fail_worker) or grow it
    // (respawns), either of which invalidates iterators; the WorkerProc
    // itself is heap-stable, so the pointer survives both.
    if (!pending_.empty()) {
      WorkerProc* idle = nullptr;
      for (const auto& candidate : live_) {
        if (candidate->current_point < 0) {
          idle = candidate.get();
          break;
        }
      }
      if (idle) assign_next(*idle);
    }
  }

  void quarantine(int point, const std::string& what) {
    report_.quarantined.push_back(
        {point, attempts_[static_cast<std::size_t>(point)], what});
    ++done_;
    log("point " + std::to_string(point) + ": quarantined after " +
        std::to_string(attempts_[static_cast<std::size_t>(point)]) +
        " attempt(s): " + what);
  }

  void quarantine_pending(const std::string& why) {
    while (!pending_.empty()) {
      const int point = pending_.front();
      pending_.pop_front();
      const auto index = static_cast<std::size_t>(point);
      quarantine(point, last_error_[index].empty() ? why
                                                   : last_error_[index] +
                                                         "; then " + why);
    }
  }

  // --- the poll loop -------------------------------------------------------

  void poll_once() {
    std::vector<pollfd> fds;
    std::vector<pid_t> pids;
    fds.reserve(live_.size());
    for (const auto& worker : live_) {
      fds.push_back({worker->fd, POLLIN, 0});
      pids.push_back(worker->pid);
    }
    const int timeout_ms = next_timeout_ms();
    const int ready = poll_fds(fds.data(), fds.size(), timeout_ms);
    if (ready < 0)
      throw DispatchError(std::string("poll: ") + std::strerror(errno));
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      // The worker may already be gone (failed while handling a sibling).
      WorkerProc* worker = find_by_pid(pids[i]);
      if (worker) handle_readable(*worker);
    }
    reap_lost();
    enforce_timeouts();
    // Spawns deferred by the crash-loop backoff happen here once the
    // deadline passes (next_timeout_ms bounded the sleep above).
    ensure_capacity();
  }

  WorkerProc* find_by_pid(pid_t pid) {
    for (const auto& worker : live_)
      if (worker->pid == pid) return worker.get();
    return nullptr;
  }

  /// The in-flight point's deadline, scaled by its attempt number: a
  /// point on attempt k gets k x point_timeout_seconds, so a slow but
  /// legitimate point is not quarantined by k identical timeouts.
  double attempt_deadline_seconds(const WorkerProc& worker) const {
    const int attempt = std::max(
        1, attempts_[static_cast<std::size_t>(worker.current_point)]);
    return options_.point_timeout_seconds * attempt;
  }

  int next_timeout_ms() const {
    double soonest = -1.0;  // seconds until the nearest deadline
    const auto now = Clock::now();
    if (options_.point_timeout_seconds > 0.0) {
      for (const auto& worker : live_) {
        if (worker->current_point < 0) continue;
        const double elapsed =
            std::chrono::duration<double>(now - worker->assigned_at).count();
        const double left = attempt_deadline_seconds(*worker) - elapsed;
        soonest = soonest < 0.0 ? left : std::min(soonest, left);
      }
    }
    if (next_spawn_allowed_ > now && spawn_wanted()) {
      const double until_spawn =
          std::chrono::duration<double>(next_spawn_allowed_ - now).count();
      soonest = soonest < 0.0 ? until_spawn : std::min(soonest, until_spawn);
    }
    if (!reaping_.empty()) return kReapPollMs;
    if (soonest < 0.0) return -1;
    return std::max(0, static_cast<int>(soonest * 1000.0) + 1);
  }

  void enforce_timeouts() {
    if (options_.point_timeout_seconds <= 0.0) return;
    const auto now = Clock::now();
    for (const auto& worker : live_) {
      if (worker->current_point < 0 || worker->timed_out) continue;
      const double elapsed =
          std::chrono::duration<double>(now - worker->assigned_at).count();
      if (elapsed >= attempt_deadline_seconds(*worker)) {
        worker->timed_out = true;
        kill_backend(worker->pid);  // EOF lands in the next poll
      }
    }
  }

  void handle_readable(WorkerProc& worker) {
    char buffer[64 * 1024];
    const ssize_t n = read_some(worker.fd, buffer, sizeof(buffer));
    if (n < 0) {
      fail_worker(worker, Loss::kReadError, std::strerror(errno));
      return;
    }
    if (n == 0) {
      fail_worker(worker, Loss::kEof, worker.decoder.pending_bytes() > 0
                                          ? "stream truncated mid-frame"
                                          : "stream closed");
      return;
    }
    worker.decoder.feed(buffer, static_cast<std::size_t>(n));
    try {
      while (const auto frame = worker.decoder.next())
        if (!handle_frame(worker, *frame)) return;  // worker failed
    } catch (const WireError& e) {
      fail_worker(worker, Loss::kBadFrame, e.what());
    }
  }

  /// Why `message` ends the backend's connection, or empty when it is a
  /// frame the dispatcher expects: the backend's hello first, then frames
  /// for the in-flight point only.  A connection-level or retryable error
  /// is a lost backend too; resubmission is the dispatcher's one retry.
  static std::string protocol_violation(const WorkerProc& worker,
                                        const service::ServerMessage& message) {
    using Type = service::ServerMessage::Type;
    if (message.type == Type::kHello) {
      if (worker.greeted) return "duplicate hello";
      if (message.version != service::kProtocolVersion)
        return "protocol version mismatch: backend speaks " +
               std::to_string(message.version) + ", dispatcher " +
               std::to_string(service::kProtocolVersion);
      return "";
    }
    if (!worker.greeted) return "first frame must be the backend's hello";
    if (message.type == Type::kError && message.id < 0)
      return "backend reported: " + message.what;
    if (message.id != worker.current_point)
      return "unexpected frame for point " + std::to_string(message.id);
    if (message.type == Type::kError && message.retry_after_ms >= 0)
      return "backend shed the point (retry_after_ms=" +
             std::to_string(message.retry_after_ms) + "): " + message.what;
    return "";
  }

  /// Returns false when the frame failed the worker (stop touching it).
  bool handle_frame(WorkerProc& worker, const std::string& frame) {
    using Type = service::ServerMessage::Type;
    service::ServerMessage message;
    try {
      message = service::parse_server_message(frame);
    } catch (const service::ServiceError& e) {
      fail_worker(worker, Loss::kBadFrame, e.what());
      return false;
    }
    if (const std::string violation = protocol_violation(worker, message);
        !violation.empty()) {
      fail_worker(worker, Loss::kBadFrame, violation);
      return false;
    }
    if (message.type == Type::kHello) {
      worker.greeted = true;
      return true;
    }
    if (message.type == Type::kProgress) return true;  // never requested
    const int point = worker.current_point;
    const auto index = static_cast<std::size_t>(point);
    worker.current_point = -1;

    if (message.type == Type::kError) {
      // Deterministic point failure: retrying it on another worker would
      // fail identically — quarantine now, with the worker's diagnostic.
      quarantine(point, "worker reported: " + message.what);
    } else {
      try {
        report_.results[index] = campaign_result_from_json(message.result);
      } catch (const JsonError& e) {
        worker.current_point = point;  // still this worker's failure
        fail_worker(worker, Loss::kBadFrame,
                    std::string("malformed result document: ") + e.what());
        return false;
      }
      report_.completed[index] = true;
      ++done_;
      ++worker.results_delivered;
      crash_streak_ = 0;  // the fleet is delivering; stand down the backoff
      log("point " + std::to_string(point) + ": merged (worker " +
          std::to_string(worker.slot) + ")");
    }

    // A failed reassignment write means fail_worker already moved `worker`
    // to the reaping list — handle_readable must not touch its decoder again.
    return assign_next(worker) != Assign::kWorkerLost;
  }

  // --- teardown ------------------------------------------------------------

  void shutdown_workers() {
    // Hanging up is the shutdown signal; every live backend is idle by now
    // (the loop only ends when no point is in flight), so each one's
    // Server::run returns promptly.  One that lingers past the grace
    // period is killed, as is a lost one still awaiting its reap.
    for (const auto& worker : live_) ::close(worker->fd);
    const auto kill_at = Clock::now() + kReapGrace;
    for (const auto& worker : live_) {
      int status = 0;
      while (!try_reap(worker->pid, kill_at, status))
        std::this_thread::sleep_for(std::chrono::milliseconds(kReapPollMs));
    }
    live_.clear();
    while (!reaping_.empty()) {
      reap_lost();
      if (!reaping_.empty())
        std::this_thread::sleep_for(std::chrono::milliseconds(kReapPollMs));
    }
  }

  DispatchOptions options_;
  SweepSpec sweep_;
  std::deque<int> pending_;
  std::vector<int> attempts_;
  std::vector<std::string> last_error_;
  std::vector<std::unique_ptr<WorkerProc>> live_;
  std::vector<LostWorker> reaping_;  ///< lost, connection closed, not reaped
  DispatchReport report_;
  int done_ = 0;  ///< completed + quarantined
  int next_slot_ = 0;
  bool kill_hook_fired_ = false;
  int crash_streak_ = 0;  ///< consecutive worker losses with no result
  Clock::time_point next_spawn_allowed_{};  ///< crash-loop backoff gate
};

}  // namespace

bool DispatchReport::all_safety_clean() const {
  if (!quarantined.empty()) return false;
  for (std::size_t i = 0; i < results.size(); ++i)
    if (completed[i] && !results[i].safety_clean()) return false;
  return true;
}

std::string DispatchReport::summary() const {
  std::ostringstream os;
  os << "dispatch: " << points << " point" << (points == 1 ? "" : "s")
     << " on " << workers << " worker" << (workers == 1 ? "" : "s") << " ("
     << workers_spawned << " spawned, " << workers_failed << " failed), "
     << "resubmitted_points=" << resubmitted_points
     << ", quarantined=" << quarantined.size() << ", wall "
     << format_double(wall_seconds, 2) << "s";
  return os.str();
}

DispatchReport dispatch_sweep(const SweepSpec& sweep,
                              const DispatchOptions& options) {
  return Dispatcher(sweep, options).run();
}

}  // namespace hoval::dispatch
