#pragma once

/// \file stream.hpp
/// The byte-stream primitives under every dispatch transport: EINTR-safe
/// reads and full writes on blocking fds, an EINTR-retrying poll wrapper,
/// and a scoped SIGPIPE guard.  The wire layer (dispatch/wire.hpp) frames
/// messages over *any* byte stream; these helpers are the one place that
/// knows how to move those bytes over a pipe or a socket — shared by the
/// fork/exec dispatcher (dispatch/dispatch.cpp) and the hovald service
/// transport (src/service/), so a future multi-host dispatcher swaps the
/// fd's origin, not the I/O discipline.
///
/// Every syscall here routes through the fault-injection hooks in
/// util/faults.hpp (zero-cost when no HOVAL_FAULT_PLAN injector is
/// installed), so the whole distributed stack can be chaos-tested under
/// one deterministic, seed-replayable fault schedule.

#include <cstddef>

#include <poll.h>
#include <sys/types.h>

namespace hoval::dispatch {

/// read(2) retrying EINTR.  Returns the byte count, 0 at end-of-stream, or
/// -1 with errno set on any other error.
ssize_t read_some(int fd, void* buffer, std::size_t size);

/// Writes all `size` bytes, looping over short writes and EINTR.  Returns
/// false on any write error (EPIPE after the guard below, a closed socket)
/// — the caller decides whether that peer loss is fatal.
bool write_all(int fd, const void* data, std::size_t size);

/// poll(2) retrying EINTR (re-deriving the remaining timeout).  Returns
/// poll's count (0 on timeout) or -1 with errno set on a genuine error.
int poll_fds(pollfd* fds, nfds_t count, int timeout_ms);

/// Ignores SIGPIPE for the guard's lifetime, restoring the previous
/// disposition on destruction: writes to a vanished peer must surface as
/// write_all() returning false, never kill the process.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore();
  ~ScopedSigpipeIgnore();
  ScopedSigpipeIgnore(const ScopedSigpipeIgnore&) = delete;
  ScopedSigpipeIgnore& operator=(const ScopedSigpipeIgnore&) = delete;

 private:
  struct SavedAction;   ///< wraps struct sigaction (defined in stream.cpp)
  SavedAction* old_;    ///< heap-held to keep <csignal> out of the header
};

}  // namespace hoval::dispatch
