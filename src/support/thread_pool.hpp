// Thread pool backing the parallel ABV campaign engine: a batch executor.
//
// for_each_index() is its one entry point.  Each call is a batch that
// lives in the caller's frame: the calling thread claims indices of its
// own batch next to at most `max_executors - 1` pool workers, which join
// the batch while it is open and leave it when nothing is left to claim.
// Each batch keeps its own first exception, so two callers sharing one
// pool never wait for each other's work nor receive each other's errors,
// and a call nested inside an iteration always completes, on its caller
// if need be.
//
// The caller returns only after every helper that joined has left, so a
// call allocates nothing and nothing of it outlives the return, and grow()
// returns only once its new workers are running.  Between calls no pool
// thread is then inside the allocator, so a fork never leaves the child a
// lock that a pool thread held.
//
// shared() is the process-wide pool every campaign runs on: created on
// first use, grown to the largest size asked for, never destroyed (it
// stays reachable, so leak checkers stay quiet), and keyed on the process
// id, so a forked child builds its own and never touches the inherited
// one, whose threads did not survive the fork.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/diagnostics.hpp"

namespace loom::support {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 is promoted to 1).
  explicit ThreadPool(std::size_t threads);

  /// Joins the workers.  No for_each_index call may still be running.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const;

  /// Spawns workers until there are at least `threads`, and returns once
  /// every worker is running.
  void grow(std::size_t threads);

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
  // Removes `batch` from the open list; requires sync_.
  void close(Batch& batch);

  std::vector<std::thread> workers_;

  mutable std::mutex sync_;          // guards everything below
  std::condition_variable work_cv_;  // a batch opened / stopping
  std::condition_variable started_cv_;  // every worker reached its loop
  std::size_t started_ = 0;          // workers that reached their loop
  Batch* open_ = nullptr;            // batches that want helpers, oldest first
  bool stopping_ = false;
};

}  // namespace loom::support
