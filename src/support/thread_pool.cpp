#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

namespace loom::support {

ThreadPool::ThreadPool(std::size_t threads) {
  grow(std::max<std::size_t>(1, threads));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sync_);
    LOOM_DASSERT(open_ == nullptr);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::thread_count() const {
  std::lock_guard<std::mutex> lock(sync_);
  return workers_.size();
}

void ThreadPool::grow(std::size_t threads) {
  std::unique_lock<std::mutex> lock(sync_);
  LOOM_DASSERT(!stopping_);
  while (workers_.size() < threads) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  // A thread still starting up may be inside the allocator (a sanitizer's
  // thread set-up frees and allocates), where a fork would catch it holding
  // a lock the child can never take: return once every worker is waiting.
  started_cv_.wait(lock, [this] { return started_ == workers_.size(); });
}

// One for_each_index call, in its caller's frame.  Every executor — the
// caller and each helper that joined — claims the next unclaimed index
// until none is left.  The fields after `claim` are guarded by the pool's
// sync_: the batch stays on the open list until `wanted` helpers joined
// or its caller closed it, and the caller returns only once `joined` is
// back to zero, so no helper touches the batch after the call returned.
struct ThreadPool::Batch {
  Batch(std::size_t count, const std::function<void(std::size_t)>& fn,
        std::size_t helpers)
      : body(fn), n(count), wanted(helpers) {}

  // Runs iterations until none is left to claim.
  void drain(std::mutex& sync) {
    for (;;) {
      const std::size_t i = claim.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(sync);
        if (!error) error = std::current_exception();
      }
    }
  }

  const std::function<void(std::size_t)>& body;
  const std::size_t n;
  std::atomic<std::size_t> claim{0};
  std::size_t wanted;              // helpers it may still take
  std::size_t joined = 0;          // helpers inside drain()
  Batch* next = nullptr;           // open-list link
  std::condition_variable left;    // joined fell to zero
  std::exception_ptr error;
};

void ThreadPool::close(Batch& batch) {
  for (Batch** at = &open_; *at != nullptr; at = &(*at)->next) {
    if (*at == &batch) {
      *at = batch.next;
      return;
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(sync_);
  if (++started_ == workers_.size()) started_cv_.notify_all();
  for (;;) {
    work_cv_.wait(lock, [this] { return open_ != nullptr || stopping_; });
    if (open_ == nullptr) return;  // stopping, and no batch wants help
    Batch& batch = *open_;
    ++batch.joined;
    if (--batch.wanted == 0) close(batch);
    lock.unlock();
    batch.drain(sync_);
    lock.lock();
    // Notified under sync_: the caller cannot see joined == 0, return and
    // end the batch's life before this thread has let go of the lock.
    if (--batch.joined == 0) batch.left.notify_one();
  }
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& body,
                                std::size_t max_executors) {
  if (n == 0) return;
  const std::size_t helpers = std::min(
      n, max_executors == 0 ? thread_count() + 1 : max_executors) - 1;
  Batch batch(n, body, helpers);
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(sync_);
      Batch** at = &open_;
      while (*at != nullptr) at = &(*at)->next;
      *at = &batch;
    }
    for (std::size_t h = 0; h < helpers; ++h) work_cv_.notify_one();
  }
  batch.drain(sync_);
  // Nothing is left to claim: stop helpers from joining, then wait for the
  // ones that did to finish the iterations they claimed.
  std::unique_lock<std::mutex> lock(sync_);
  close(batch);
  batch.left.wait(lock, [&batch] { return batch.joined == 0; });
  lock.unlock();
  if (batch.error) std::rethrow_exception(batch.error);
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
