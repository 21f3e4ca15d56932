// Unit tests for the pool behind the parallel campaign engine: completion,
// exception propagation, bounded-queue saturation and shutdown draining;
// for_each_index's per-call latch, per-call errors and caller
// participation (concurrent and nested callers); and the process-wide
// pool's growth.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace loom::support {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  ThreadPool pool(4);
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, ZeroThreadsIsPromotedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ForEachIndexCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each_index(hits.size(),
                      [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, PropagatesTheFirstExceptionAndRecovers) {
  ThreadPool pool(2);
  std::atomic<int> survivors{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&survivors, i] {
      if (i == 5) throw std::runtime_error("shard 5 exploded");
      survivors.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The failure does not poison the pool: later batches run and a clean
  // wait_idle() returns normally.
  EXPECT_EQ(survivors.load(), 15);
  pool.submit([&survivors] { survivors.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(survivors.load(), 16);
}

TEST(ThreadPool, SaturationBlocksProducersWithoutLosingTasks) {
  // A queue bound far below the task count forces submit() into its
  // back-pressure path; every task must still run exactly once.
  std::atomic<int> counter{0};
  ThreadPool pool(3, /*queue_capacity=*/2);
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      counter.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
    // No wait_idle(): shutdown itself must finish the queue.
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, ManyProducersOneConsumerPool) {
  // Cross-thread submission exercises the stealing path: producers enqueue
  // round-robin while a single worker drains everything.
  std::atomic<int> counter{0};
  ThreadPool pool(1);
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < 50; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (auto& p : producers) p.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ConcurrentCallersDoNotWaitForEachOthersWork) {
  // Caller A's batch blocks in its body; caller B's batch on the same pool
  // must still complete, and A completes once released.
  ThreadPool pool(2);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto a = std::async(std::launch::async, [&] {
    pool.for_each_index(1, [&](std::size_t) {
      started.set_value();
      released.wait();
    });
  });
  started.get_future().wait();
  std::atomic<int> b_hits{0};
  auto b = std::async(std::launch::async, [&] {
    pool.for_each_index(64, [&](std::size_t) { b_hits.fetch_add(1); });
  });
  const bool b_finished =
      b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  a.get();
  ASSERT_TRUE(b_finished) << "caller B waited for caller A's batch";
  b.get();
  EXPECT_EQ(b_hits.load(), 64);
}

TEST(ThreadPool, AnExceptionReachesOnlyTheCallerWhoseBatchThrew) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> clean_hits{0};
    auto failing = std::async(std::launch::async, [&] {
      pool.for_each_index(32, [](std::size_t i) {
        if (i == 7) throw std::runtime_error("index 7 exploded");
      });
    });
    auto clean = std::async(std::launch::async, [&] {
      pool.for_each_index(32, [&](std::size_t) { clean_hits.fetch_add(1); });
    });
    EXPECT_NO_THROW(clean.get());
    EXPECT_EQ(clean_hits.load(), 32);
    EXPECT_THROW(failing.get(), std::runtime_error);
  }
  // The per-call error is not left behind on the pool either.
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_NO_THROW(pool.for_each_index(8, [](std::size_t) {}));
}

TEST(ThreadPool, ANestedForEachIndexCompletes) {
  // Every worker is busy with an outer iteration that itself fans out on
  // the same pool: the nested calls finish on their callers.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(8 * 16);
    pool.for_each_index(8, [&](std::size_t outer) {
      pool.for_each_index(16, [&](std::size_t inner) {
        hits[outer * 16 + inner].fetch_add(1);
      });
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads " << threads << " index " << i;
    }
  }
}

TEST(ThreadPool, ForEachIndexUsesAtMostMaxExecutors) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  pool.for_each_index(
      200,
      [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(std::this_thread::get_id());
      },
      /*max_executors=*/1);
  // One executor: the caller alone.
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), std::this_thread::get_id());

  seen.clear();
  pool.for_each_index(
      200,
      [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(std::this_thread::get_id());
      },
      /*max_executors=*/2);
  EXPECT_LE(seen.size(), 2u);
}

TEST(ThreadPool, TheSharedPoolIsOneInstanceThatGrows) {
  ThreadPool& first = ThreadPool::shared(2);
  EXPECT_GE(first.thread_count(), 2u);
  ThreadPool& second = ThreadPool::shared(3);
  EXPECT_EQ(&first, &second);
  EXPECT_GE(second.thread_count(), 3u);
  ThreadPool& smaller = ThreadPool::shared(1);
  EXPECT_EQ(&first, &smaller);
  EXPECT_GE(smaller.thread_count(), 3u) << "the pool never shrinks";
  std::vector<std::atomic<int>> hits(100);
  smaller.for_each_index(hits.size(),
                         [&](std::size_t i) { hits[i].fetch_add(1); }, 3);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace loom::support
