// Thread pool backing the parallel ABV campaign engine.
//
// Workers take tasks from one FIFO queue.  The amount of queued-but-
// unstarted work is bounded by `queue_capacity`; submit() blocks when the
// pool is saturated, giving producers back-pressure instead of unbounded
// memory growth.  The first exception thrown by a submitted task is
// captured and re-thrown from wait_idle() on the calling thread.
//
// for_each_index() is the campaign's entry point and keeps its own books:
// each call is a batch with a per-call completion latch and a per-call
// first exception, the calling thread claims indices of its own batch
// next to at most `max_executors - 1` pool workers, and the workers it
// enlists are optional helpers.  So two callers sharing one pool never
// wait for each other's tasks nor receive each other's errors, and a call
// nested inside a task always completes, on its caller if need be.
//
// shared() is the process-wide pool every campaign runs on: created on
// first use, grown to the largest size asked for, never destroyed (it
// stays reachable, so leak checkers stay quiet), and keyed on the process
// id, so a forked child builds its own and never touches the inherited
// one, whose threads did not survive the fork.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/diagnostics.hpp"

namespace loom::support {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers (0 is promoted to 1); at most
  /// `queue_capacity` tasks may sit unstarted.
  explicit ThreadPool(std::size_t threads, std::size_t queue_capacity = 4096);

  /// Drains every queued task, joins the workers.  An exception captured
  /// but never collected through wait_idle() is dropped here (destructors
  /// must not throw).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const;

  /// Spawns workers until there are at least `threads`.
  void grow(std::size_t threads);

  /// Enqueues a task; blocks while the pool is saturated.
  void submit(Task task);

  /// Blocks until every submitted task has finished, then re-throws the
  /// first exception any of them raised (if one did).
  void wait_idle();

  /// Runs body(i) for every i in [0, n) on the calling thread and at most
  /// `max_executors - 1` workers (0: every worker), blocking until all
  /// iterations finished; then re-throws the first exception an iteration
  /// of this call raised.  Independent of every other caller's work.
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& body,
                      std::size_t max_executors = 0);

  /// The process-wide pool, grown to at least `threads` workers.
  static ThreadPool& shared(std::size_t threads);

 private:
  struct Batch;

  void worker_loop();
  // Enqueues without blocking; false when the pool is saturated.
  bool try_submit(Task& task);

  std::vector<std::thread> workers_;
  std::deque<Task> tasks_;

  mutable std::mutex sync_;            // guards everything above and below
  std::condition_variable work_cv_;    // a task was queued / stopping
  std::condition_variable space_cv_;   // a queued task was taken
  std::condition_variable idle_cv_;    // in_flight_ hit zero
  std::size_t capacity_ = 0;
  std::size_t in_flight_ = 0;          // submitted, not yet finished
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

}  // namespace loom::support
