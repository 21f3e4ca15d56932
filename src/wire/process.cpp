#include "wire/process.hpp"

#if LOOM_WIRE_HAS_PROCESS

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/syscall.h>
#endif

namespace loom::wire {

namespace {

using Clock = std::chrono::steady_clock;

// Milliseconds until `deadline`, rounded up so a sub-millisecond remainder
// sleeps instead of spinning, and clamped at 0 (poll() treats a negative
// timeout as infinite, which is exactly the bug a clamp prevents).
int remaining_ms(Clock::time_point deadline) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
          .count();
  if (left <= 0) return 0;
  if (left > 0x7fffffff) return 0x7fffffff;
  return static_cast<int>(left);
}

// Waits until `fd` is readable or the deadline passes.  True when readable
// (POLLHUP/POLLERR count: the following read() reports EOF or the error);
// false on deadline expiry.
bool poll_readable_until(int fd, Clock::time_point deadline) {
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, remaining_ms(deadline));
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return true;  // let read() surface the error
  }
}

// Creates a close-on-exec pipe: pipe2(O_CLOEXEC) where available, else
// pipe() + fcntl(FD_CLOEXEC) on both ends.  Returns 0 or -1 with errno.
int pipe_cloexec(int fds[2]) {
#if defined(O_CLOEXEC) && defined(__linux__)
  return ::pipe2(fds, O_CLOEXEC);
#else
  if (::pipe(fds) != 0) return -1;
  for (int i = 0; i < 2; ++i) {
    const int flags = ::fcntl(fds[i], F_GETFD);
    if (flags < 0 || ::fcntl(fds[i], F_SETFD, flags | FD_CLOEXEC) < 0) {
      const int saved = errno;
      ::close(fds[0]);
      ::close(fds[1]);
      errno = saved;
      return -1;
    }
  }
  return 0;
#endif
}

// pidfd_open(2): a close-on-exec descriptor that polls readable once `pid`
// has exited.  -1 where the call is missing (non-Linux, pre-5.3 kernels) or
// filtered (seccomp EPERM); waiters then fall back to WNOHANG polling.
int open_pidfd(pid_t pid) {
#if defined(__linux__) && defined(SYS_pidfd_open)
  const long fd = ::syscall(SYS_pidfd_open, pid, 0);
  return fd < 0 ? -1 : static_cast<int>(fd);
#else
  (void)pid;
  return -1;
#endif
}

}  // namespace

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

long read_exact(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) break;  // EOF
    got += static_cast<std::size_t>(r);
  }
  return static_cast<long>(got);
}

void ignore_sigpipe() {
  // Armed once per process image; the disposition survives fork() and is
  // re-armed by run_campaign_worker after exec, so both halves of the pipe
  // protocol see EPIPE instead of dying.  sigaction instead of signal():
  // defined semantics everywhere, no accidental SA_RESTART surprises.
  static const bool armed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = SIG_IGN;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGPIPE, &sa, nullptr);
    return true;
  }();
  (void)armed;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
}

WorkerProcess::WorkerProcess(WorkerProcess&& other) noexcept {
  *this = std::move(other);
}

WorkerProcess& WorkerProcess::operator=(WorkerProcess&& other) noexcept {
  if (this == &other) return *this;
  close_to_child();
  close_from_child();
  close_exit_fd();
  pid = other.pid;
  to_child = other.to_child;
  from_child = other.from_child;
  exit_fd = other.exit_fd;
  index = other.index;
  waited_ = other.waited_;
  status_ = other.status_;
  other.pid = -1;
  other.to_child = -1;
  other.from_child = -1;
  other.exit_fd = -1;
  return *this;
}

WorkerProcess::~WorkerProcess() {
  close_to_child();
  close_from_child();
  close_exit_fd();
}

void WorkerProcess::close_to_child() {
  if (to_child >= 0) ::close(to_child);
  to_child = -1;
}

void WorkerProcess::close_from_child() {
  if (from_child >= 0) ::close(from_child);
  from_child = -1;
}

void WorkerProcess::close_exit_fd() {
  if (exit_fd >= 0) ::close(exit_fd);
  exit_fd = -1;
}

void WorkerProcess::reaped(int status) {
  status_ = status;
  waited_ = true;
  close_exit_fd();
}

int WorkerProcess::wait() {
  if (!waited_ && pid > 0) {
    int status = 0;
    while (::waitpid(static_cast<pid_t>(pid), &status, 0) < 0) {
      if (errno != EINTR) {
        status = 0;
        break;
      }
    }
    reaped(status);
  }
  return status_;
}

bool WorkerProcess::wait_for(long timeout_ms, int& status) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
  while (!waited_ && pid > 0) {
    int raw = 0;
    const pid_t r = ::waitpid(static_cast<pid_t>(pid), &raw, WNOHANG);
    if (r == static_cast<pid_t>(pid)) {
      reaped(raw);
    } else if (r < 0 && errno != EINTR) {
      // ECHILD etc.: nothing left to reap — report "done" with a zero
      // status rather than spinning until the deadline.
      reaped(0);
    } else if (r < 0) {
      continue;  // EINTR: retry the reap at once
    } else if (Clock::now() >= deadline) {
      return false;
    } else if (exit_fd >= 0) {
      // Sleep until the child exits (the pidfd turns readable) or the
      // deadline passes; either way the loop re-checks with WNOHANG.
      poll_readable_until(exit_fd, deadline);
    } else {
      // No pidfd: exits are signaled by SIGCHLD only, so a short sleep
      // bounds the reap latency without burning a core.
      ::usleep(1000);
    }
  }
  status = status_;
  return true;
}

void WorkerProcess::kill(int sig) {
  if (!waited_ && pid > 0) ::kill(static_cast<pid_t>(pid), sig);
}

int WorkerProcess::terminate(long grace_ms) {
  close_to_child();
  close_from_child();
  if (waited_ || pid <= 0) return status_;
  kill(SIGTERM);
  int status = 0;
  if (wait_for(grace_ms, status)) return status;
  kill(SIGKILL);
  return wait();  // SIGKILL cannot be ignored; this reaps promptly
}

WorkerProcess spawn_worker(const std::vector<std::string>& argv,
                           const std::function<int(int, int)>& child_main,
                           std::size_t index,
                           const std::vector<int>& inherited_fds) {
  int to_child[2];    // parent writes [1], child reads [0]
  int from_child[2];  // child writes [1], parent reads [0]
  if (pipe_cloexec(to_child) != 0) {
    throw std::runtime_error(std::string("pipe failed: ") +
                             std::strerror(errno));
  }
  if (pipe_cloexec(from_child) != 0) {
    const int saved = errno;
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw std::runtime_error(std::string("pipe failed: ") +
                             std::strerror(saved));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int saved = errno;
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(saved));
  }
  if (pid == 0) {
    // Child.  Close the parent's ends first so EOF propagates.
    ::close(to_child[1]);
    ::close(from_child[0]);
    if (argv.empty()) {
      // Fork-only mode: no exec, so O_CLOEXEC never fires — close the
      // inherited parent-side pipe ends of sibling workers explicitly, or
      // a sibling's EOF would wait on this process too.
      for (const int fd : inherited_fds) {
        if (fd >= 0) ::close(fd);
      }
      // Run the worker loop in this image and leave via _exit — no
      // destructors, no atexit; the parent's state must not be torn down
      // twice.
      int code = 127;
      if (child_main) code = child_main(to_child[0], from_child[1]);
      ::_exit(code);
    }
    // Exec mode: the worker speaks wire on stdin/stdout.  dup2 clears
    // FD_CLOEXEC on the duplicate, so exactly these two descriptors
    // survive the exec; every other pipe end closes itself.
    if (::dup2(to_child[0], STDIN_FILENO) < 0 ||
        ::dup2(from_child[1], STDOUT_FILENO) < 0) {
      ::_exit(126);  // abv::kWorkerExitExecSetup
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    ::execvp(cargv[0], cargv.data());
    ::_exit(127);  // abv::kWorkerExitExecMissing: exec itself failed
  }
  // Parent.  The child cannot be reaped before this process waits for it,
  // so the pid stays valid for pidfd_open even if the child already died.
  ::close(to_child[0]);
  ::close(from_child[1]);
  WorkerProcess w;
  w.pid = pid;
  w.to_child = to_child[1];
  w.from_child = from_child[0];
  w.exit_fd = open_pidfd(pid);
  w.index = index;
  return w;
}

std::string describe_wait_status(int status) {
  if (WIFEXITED(status)) {
    return "exited with code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "ended with wait status " + std::to_string(status);
}

int exit_code(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

FdFrameReader::Status FdFrameReader::next(Frame& frame, DecodeError& err) {
  const bool timed = timeout_ms_ > 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timed ? timeout_ms_ : 0);

  // One incremental read step.  Returns the bytes read (> 0), 0 on EOF, or
  // a negative sentinel: -1 read error, -2 deadline expired, -3 would
  // block without a deadline (the caller's poll loop owns the waiting).
  // When a deadline is armed the poll comes *before* the read: the fd may
  // be in blocking mode (a worker's stdin), and a blocked read() would
  // never notice the deadline at all.
  const auto step = [&](std::uint8_t* dst, std::size_t want) -> long {
    for (;;) {
      if (timed && !poll_readable_until(fd_, deadline)) return -2;
      const ssize_t r = ::read(fd_, dst, want);
      if (r >= 0) return static_cast<long>(r);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!timed) return -3;
        continue;
      }
      return -1;
    }
  };

  for (;;) {
    if (!in_payload_) {
      while (header_got_ < kFrameHeaderBytes) {
        if (timed && Clock::now() >= deadline) {
          err.offset = header_got_;
          err.message = "read timed out after " + std::to_string(timeout_ms_) +
                        " ms inside a frame header (" +
                        std::to_string(header_got_) + " of 16 bytes)";
          return Status::Timeout;
        }
        const long r = step(header_ + header_got_,
                            kFrameHeaderBytes - header_got_);
        if (r > 0) {
          header_got_ += static_cast<std::size_t>(r);
          continue;
        }
        if (r == 0) {
          if (header_got_ == 0) return Status::Eof;
          err.offset = header_got_;
          err.message = "stream ended inside a frame header (" +
                        std::to_string(header_got_) + " of 16 bytes)";
          return Status::Error;
        }
        if (r == -3) return Status::Again;
        if (r == -2) {
          err.offset = header_got_;
          err.message = "read timed out after " + std::to_string(timeout_ms_) +
                        " ms inside a frame header (" +
                        std::to_string(header_got_) + " of 16 bytes)";
          return Status::Timeout;
        }
        err.offset = header_got_;
        err.message = "pipe read failed";
        return Status::Error;
      }
      FrameHeader h;
      if (!parse_frame_header(header_, kFrameHeaderBytes, h, err)) {
        return Status::Error;
      }
      // parse_frame_header already capped the length at kMaxFrameBytes, so
      // this resize is bounded; the buffer's capacity survives across
      // frames.
      pending_tag_ = h.tag;
      payload_.resize(static_cast<std::size_t>(h.length));
      payload_got_ = 0;
      in_payload_ = true;
    }
    while (payload_got_ < payload_.size()) {
      if (timed && Clock::now() >= deadline) {
        err.offset = kFrameHeaderBytes + payload_got_;
        err.message = "read timed out after " + std::to_string(timeout_ms_) +
                      " ms inside a frame payload (" +
                      std::to_string(payload_got_) + " of " +
                      std::to_string(payload_.size()) + " bytes)";
        return Status::Timeout;
      }
      const long r =
          step(payload_.data() + payload_got_, payload_.size() - payload_got_);
      if (r > 0) {
        payload_got_ += static_cast<std::size_t>(r);
        continue;
      }
      if (r == 0) {
        err.offset = kFrameHeaderBytes + payload_got_;
        err.message = "stream ended inside a frame payload (" +
                      std::to_string(payload_got_) + " of " +
                      std::to_string(payload_.size()) + " bytes)";
        return Status::Error;
      }
      if (r == -3) return Status::Again;
      if (r == -2) {
        err.offset = kFrameHeaderBytes + payload_got_;
        err.message = "read timed out after " + std::to_string(timeout_ms_) +
                      " ms inside a frame payload (" +
                      std::to_string(payload_got_) + " of " +
                      std::to_string(payload_.size()) + " bytes)";
        return Status::Timeout;
      }
      err.offset = kFrameHeaderBytes + payload_got_;
      err.message = "pipe read failed";
      return Status::Error;
    }
    // Frame complete: reset the state machine for the next call; the
    // payload buffer stays valid (and owned) until then.
    in_payload_ = false;
    header_got_ = 0;
    ++frames_read_;
    frame.tag = pending_tag_;
    frame.data = payload_.data();
    frame.size = payload_.size();
    return Status::Frame;
  }
}

}  // namespace loom::wire

#endif  // LOOM_WIRE_HAS_PROCESS
