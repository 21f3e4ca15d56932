#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

namespace loom::support {

ThreadPool::ThreadPool(std::size_t threads, std::size_t queue_capacity)
    : capacity_(queue_capacity) {
  LOOM_DASSERT(queue_capacity > 0);
  grow(std::max<std::size_t>(1, threads));
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(sync_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  LOOM_DASSERT(tasks_.empty());
}

std::size_t ThreadPool::thread_count() const {
  std::lock_guard<std::mutex> lock(sync_);
  return workers_.size();
}

void ThreadPool::grow(std::size_t threads) {
  std::lock_guard<std::mutex> lock(sync_);
  LOOM_DASSERT(!stopping_);
  while (workers_.size() < threads) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::submit(Task task) {
  LOOM_DASSERT(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(sync_);
    LOOM_DASSERT(!stopping_);
    space_cv_.wait(lock, [this] { return tasks_.size() < capacity_; });
    tasks_.push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

bool ThreadPool::try_submit(Task& task) {
  {
    std::lock_guard<std::mutex> lock(sync_);
    if (tasks_.size() >= capacity_) return false;
    tasks_.push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
  return true;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(sync_);
  for (;;) {
    work_cv_.wait(lock, [this] { return !tasks_.empty() || stopping_; });
    if (tasks_.empty()) return;  // stopping, and nothing left to run
    Task task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    space_cv_.notify_one();
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> error_lock(sync_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    task = nullptr;  // release what the task captured before reporting idle
    lock.lock();
    LOOM_DASSERT(in_flight_ > 0);
    if (--in_flight_ == 0) idle_cv_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(sync_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

// One for_each_index call.  Every executor — the caller and each helper
// task — claims the next unclaimed index until none is left; `left` counts
// the iterations still running or unclaimed, and whoever finishes the last
// one opens the latch.  Helpers hold the batch by shared_ptr, so a helper
// the pool starts only after the caller returned finds nothing to claim
// and touches nothing the caller owned: `body` is read only after a
// successful claim, which happens before the latch opens.
struct ThreadPool::Batch {
  Batch(std::size_t count, const std::function<void(std::size_t)>& fn)
      : body(&fn), n(count), left(count) {}

  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
      if (left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
        latch.notify_all();
      }
    }
  }

  const std::function<void(std::size_t)>* body;
  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> left;
  std::mutex mutex;  // guards done and error
  std::condition_variable latch;
  bool done = false;
  std::exception_ptr error;
};

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& body,
                                std::size_t max_executors) {
  if (n == 0) return;
  const std::size_t executors = std::min(
      n, max_executors == 0 ? thread_count() + 1 : max_executors);
  auto batch = std::make_shared<Batch>(n, body);
  for (std::size_t h = 1; h < executors; ++h) {
    // Helpers are optional: on a saturated pool the caller does the rest.
    Task helper = [batch] { batch->drain(); };
    if (!try_submit(helper)) break;
  }
  batch->drain();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->latch.wait(lock, [&] { return batch->done; });
    error = batch->error;
  }
  if (error) std::rethrow_exception(error);
}

namespace {

// Without POSIX there is no fork, so one key serves the whole run.
long process_id() {
#if __has_include(<unistd.h>)
  return static_cast<long>(::getpid());
#else
  return 0;
#endif
}

// The process-wide pool of one process.  A forked child finds its parent's
// record in place, with no threads behind it and possibly a mutex some
// parent thread held at the fork: it links that record as `inherited`
// (reachable, never touched) and installs its own.
struct ProcessPool {
  ProcessPool(long pid, ProcessPool* parent, std::size_t threads)
      : owner(pid), inherited(parent), pool(threads) {}

  const long owner;
  ProcessPool* const inherited;
  ThreadPool pool;
};

std::atomic<ProcessPool*> g_process_pool{nullptr};

}  // namespace

ThreadPool& ThreadPool::shared(std::size_t threads) {
  const long self = process_id();
  ProcessPool* current = g_process_pool.load(std::memory_order_acquire);
  while (current == nullptr || current->owner != self) {
    auto* fresh = new ProcessPool(self, current, threads);
    if (g_process_pool.compare_exchange_strong(current, fresh,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      current = fresh;
      break;
    }
    delete fresh;  // another thread installed one first; use that
  }
  current->pool.grow(threads);
  return current->pool;
}

}  // namespace loom::support
