//! POSIX plumbing for cross-process campaign workers: pipe pairs, worker
//! spawning (fork-only or fork+exec), exact-length pipe I/O and a buffered
//! frame reader over a file descriptor.
//!
//! Everything here is mechanism; the protocol (who writes which frames
//! when) lives in abv/campaign.cpp.  The reader reuses its header and
//! payload buffers across frames, so a parent draining thousands of
//! partial frames allocates only while a frame grows past every earlier
//! one — the mon::Snapshot reuse discipline applied to pipes.
//!
//! Supervision primitives: the reader keeps incremental per-frame state so
//! it can resume after a would-block read (Status::Again on O_NONBLOCK
//! descriptors — the multiplexed drain's building block) and enforces an
//! optional poll(2)-based read deadline (Status::Timeout) so a stalled or
//! trickling peer can never wedge the caller inside read(2).  WorkerProcess
//! carries a pidfd (exit_fd, from pidfd_open(2)) that polls readable once
//! the child has exited, so a supervisor can wait for exits in the same
//! poll(2) set as its reply pipes instead of blocking on each worker.  On
//! top of it sit a bounded wait (wait_for: poll the pidfd until the
//! deadline, then reap with WNOHANG — or, where pidfd_open is unavailable,
//! a 1 ms WNOHANG sleep-poll) and a SIGTERM→grace→SIGKILL escalation
//! (terminate) for workers that ignore pipe EOF.
//!
//! Descriptor hygiene: pipes are created close-on-exec (pipe2(O_CLOEXEC)
//! with a fcntl fallback), so exec-mode workers only ever see their own
//! dup2'd stdin/stdout; fork-only children additionally close every fd the
//! caller lists in `inherited_fds`, so a sibling worker can never hold a
//! parent pipe end open and swallow its EOF.
//!
//! Ownership: WorkerProcess owns its pipe ends until close_to_child() /
//! close_from_child() and its pidfd until the worker is reaped; the
//! destructor closes leaked descriptors but never waits (a parent must
//! reap explicitly so exit codes are observed, not lost).  The pidfd is
//! close-on-exec; fork-only children must close it like a pipe end.
//! Platform: POSIX only (fork/pipe/waitpid); LOOM_WIRE_HAS_PROCESS tells
//! callers whether cross-process mode exists in this build.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "wire/wire.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define LOOM_WIRE_HAS_PROCESS 1
#else
#define LOOM_WIRE_HAS_PROCESS 0
#endif

namespace loom::wire {

#if LOOM_WIRE_HAS_PROCESS

/// Writes all `n` bytes (restarting on EINTR / short writes); false on any
/// write error — e.g. EPIPE after the reader died, which the campaign
/// driver turns into a WorkerFailure instead of a SIGPIPE kill (it ignores
/// the signal around worker I/O).
bool write_all(int fd, const std::uint8_t* data, std::size_t n);

/// Reads exactly `n` bytes.  Returns n on success, 0 on clean EOF before
/// the first byte, and the short count on EOF mid-read; -1 on a read
/// error.  Restarts on EINTR.
long read_exact(int fd, std::uint8_t* out, std::size_t n);

/// Makes SIGPIPE a visible write error (EPIPE) instead of a process kill
/// for the whole program.  sigaction-based and armed exactly once per
/// process image (idempotent under repeated calls); both the supervising
/// parent and the worker child path call it, so an exec'd worker whose
/// parent dies mid-drain fails its writes instead of dying silently.
void ignore_sigpipe();

/// Sets O_NONBLOCK on `fd`; false (with errno set) on fcntl failure.  The
/// multiplexed drain puts worker read-ends in this mode so FdFrameReader
/// returns Status::Again instead of blocking between poll() wakeups.
bool set_nonblocking(int fd);

/// One spawned worker: its pid, the parent's two pipe ends and a pidfd.
struct WorkerProcess {
  long pid = -1;
  int to_child = -1;    // parent writes the request frame here
  int from_child = -1;  // parent reads partial/done/error frames here
  /// pidfd for the child: polls readable (POLLIN) once it has exited.
  /// -1 where pidfd_open(2) is unavailable (non-Linux, pre-5.3 kernels,
  /// seccomp filters), and again once the worker is reaped.
  int exit_fd = -1;
  /// Index in the parent's worker list (diagnostics only).
  std::size_t index = 0;

  WorkerProcess() = default;
  WorkerProcess(WorkerProcess&& other) noexcept;
  WorkerProcess& operator=(WorkerProcess&& other) noexcept;
  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;
  ~WorkerProcess();

  void close_to_child();
  void close_from_child();

  /// waitpid for this worker; returns the raw wait status (idempotent —
  /// later calls return the first status).  Blocks until the worker exits.
  int wait();

  /// Bounded wait: sleeps in poll(2) on exit_fd for up to `timeout_ms`
  /// milliseconds and reaps with waitpid(WNOHANG) as soon as the child is
  /// gone (without a pidfd: a waitpid(WNOHANG) + 1 ms sleep loop).  True
  /// (with the status in `status`) once the worker is reaped — also on
  /// later calls, like wait(); false if it is still running when the
  /// deadline passes.  A zero timeout is a non-blocking reap attempt.
  /// Never blocks longer than the deadline, so supervision tests stay
  /// well under the ctest timeout.
  bool wait_for(long timeout_ms, int& status);

  /// Sends `sig` to the worker; a no-op once it has been reaped (its pid
  /// may already name another process).
  void kill(int sig);

  /// SIGTERM→grace→SIGKILL escalation: closes both pipe ends (EOF/EPIPE
  /// for a cooperative worker), sends SIGTERM, waits up to `grace_ms`,
  /// then SIGKILLs and reaps unconditionally.  Returns the final wait
  /// status.  Idempotent: an already-reaped worker just returns its
  /// recorded status.
  int terminate(long grace_ms);

 private:
  void close_exit_fd();
  // Records the final wait status and closes exit_fd.
  void reaped(int status);

  bool waited_ = false;
  int status_ = 0;
};

/// Spawns one worker.  With a non-empty `argv` the child execs it with the
/// pipes dup2'd onto stdin/stdout (the `loomcheck --worker` path).  With
/// an empty `argv` the child never execs: it runs `child_main(read_fd,
/// write_fd)` in the forked image and _exit()s with its return value —
/// the single-binary path tests use.  Throws std::runtime_error when the
/// pipes or the fork itself fail.
///
/// `inherited_fds` lists descriptors the fork-only child must close before
/// running child_main — typically the parent-side pipe ends and pidfds of
/// its sibling workers, which O_CLOEXEC cannot cover on the no-exec path.
/// Exec-mode children need no list: every pipe and pidfd is close-on-exec.
/// The returned worker's exit_fd is opened right after fork(); it stays -1
/// when pidfd_open(2) is unavailable.
WorkerProcess spawn_worker(const std::vector<std::string>& argv,
                           const std::function<int(int, int)>& child_main,
                           std::size_t index,
                           const std::vector<int>& inherited_fds = {});

/// Renders a waitpid status ("exited with code 5", "killed by signal 9")
/// for WorkerFailure messages; exit_code() extracts the code, -1 when the
/// worker died of a signal instead of exiting.
std::string describe_wait_status(int status);
int exit_code(int status);

/// Reads length-prefixed frames off a descriptor, one at a time, into
/// capacity-reusing buffers.  The Frame view returned by next() is valid
/// until the following next() call.
///
/// The reader is an incremental state machine: a read that would block on
/// an O_NONBLOCK descriptor returns Status::Again with the partial frame
/// retained, and the following next() resumes exactly where it stopped —
/// which is what lets a supervisor multiplex many workers' streams through
/// one poll(2) loop without a slow worker hiding a sibling's failure.
/// With a read deadline set (set_read_timeout_ms), next() instead poll()s
/// for more bytes and returns Status::Timeout once the whole frame has
/// failed to arrive within the budget — a trickling peer (one byte per
/// interval) times out exactly like a silent one.
class FdFrameReader {
 public:
  explicit FdFrameReader(int fd) : fd_(fd) {}

  enum class Status {
    Frame,    // `frame` holds a validated frame
    Eof,      // clean end of stream at a frame boundary
    Error,    // `err` holds the positioned diagnostic
    Again,    // O_NONBLOCK and no complete frame yet; call next() later
    Timeout,  // the read deadline expired inside a frame read
  };

  /// Per-call deadline for completing one frame, in milliseconds; <= 0
  /// (the default) disables the deadline.  With a deadline set, a read
  /// that would block poll()s for the remaining budget instead of
  /// returning Again.
  void set_read_timeout_ms(long ms) { timeout_ms_ = ms; }

  Status next(Frame& frame, DecodeError& err);

 private:
  int fd_;
  long timeout_ms_ = 0;
  std::vector<std::uint8_t> payload_;
  std::uint8_t header_[16] = {};
  std::size_t header_got_ = 0;
  std::size_t payload_got_ = 0;
  bool in_payload_ = false;
  Payload pending_tag_ = Payload::Result;
  std::uint64_t frames_read_ = 0;
};

#endif  // LOOM_WIRE_HAS_PROCESS

}  // namespace loom::wire
