// Unit tests for the batch executor behind the parallel campaign engine:
// for_each_index's coverage (back-to-back, empty and many-caller batches),
// per-call errors, executor bound and caller participation (concurrent and
// nested callers), and growth, of a private pool and of the process-wide
// one.  tests/support_alloc_counter_test.cpp checks that a call
// allocates nothing, tests/campaign_shared_pool_test.cpp forks after it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace loom::support {
namespace {

TEST(ThreadPool, ZeroThreadsIsPromotedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::atomic<int>> hits(64);
  pool.for_each_index(hits.size(),
                      [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
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

TEST(ThreadPool, AnEmptyBatchNeverCallsTheBody) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.for_each_index(0, [&calls](std::size_t) { calls.fetch_add(1); });
  pool.for_each_index(0, [&calls](std::size_t) { calls.fetch_add(1); }, 1);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  // A thousand small batches back to back: each call opens its batch,
  // takes whatever helpers join and closes it again, and none of them
  // loses an iteration.
  std::atomic<int> counter{0};
  ThreadPool pool(4);
  for (int i = 0; i < 1000; ++i) {
    pool.for_each_index(4, [&counter](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 4000);
}

TEST(ThreadPool, PropagatesTheFirstExceptionAndRecovers) {
  ThreadPool pool(2);
  std::atomic<int> survivors{0};
  EXPECT_THROW(pool.for_each_index(16,
                                   [&survivors](std::size_t i) {
                                     if (i == 5) {
                                       throw std::runtime_error(
                                           "shard 5 exploded");
                                     }
                                     survivors.fetch_add(1);
                                   }),
               std::runtime_error);
  // A throw ends only its own iteration: every other index still ran.
  EXPECT_EQ(survivors.load(), 15);
  // Two throwing iterations: the caller receives one of the two errors.
  try {
    pool.for_each_index(16, [](std::size_t i) {
      if (i == 3 || i == 11) throw std::runtime_error(std::to_string(i));
    });
    ADD_FAILURE() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(std::string(e.what()) == "3" || std::string(e.what()) == "11")
        << e.what();
  }
  // The failures do not poison the pool: the next batch runs cleanly.
  EXPECT_NO_THROW(pool.for_each_index(
      4, [&survivors](std::size_t) { survivors.fetch_add(1); }));
  EXPECT_EQ(survivors.load(), 19);
}

TEST(ThreadPool, ManyProducersOneConsumerPool) {
  // Four callers share a one-worker pool: the worker helps whichever batch
  // is open, and every iteration of every caller runs exactly once.
  std::atomic<int> counter{0};
  ThreadPool pool(1);
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < 50; ++i) {
        pool.for_each_index(4,
                            [&counter](std::size_t) { counter.fetch_add(1); });
      }
    });
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(counter.load(), 800);
}

TEST(ThreadPool, CallersOutnumberingTheWorkersEachRunEveryIndexOnce) {
  // Eight callers open batches faster than two workers can help them: a
  // batch no worker joins runs on its caller alone, and no index of any
  // batch is lost or run twice.
  constexpr std::size_t kCallers = 8;
  constexpr std::size_t kIndices = 32;
  constexpr int kRounds = 10;
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(kCallers * kIndices);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (int round = 0; round < kRounds; ++round) {
        pool.for_each_index(kIndices, [&hits, c](std::size_t i) {
          std::this_thread::sleep_for(std::chrono::microseconds(10));
          hits[c * kIndices + i].fetch_add(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), kRounds) << "caller " << i / kIndices
                                       << " index " << i % kIndices;
  }
}

TEST(ThreadPool, GrowReturnsWithEveryNewWorkerReadyToJoin) {
  // After grow(4) a batch that wants four helpers gets all four: each
  // iteration waits until five executors are inside the batch at once.
  ThreadPool pool(1);
  pool.grow(4);
  ASSERT_EQ(pool.thread_count(), 4u);
  std::mutex mutex;
  std::condition_variable arrived;
  std::set<std::thread::id> inside;
  std::atomic<int> timed_out{0};
  pool.for_each_index(5, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    inside.insert(std::this_thread::get_id());
    arrived.notify_all();
    if (!arrived.wait_for(lock, std::chrono::seconds(10),
                          [&inside] { return inside.size() == 5; })) {
      timed_out.fetch_add(1);
    }
  });
  EXPECT_EQ(timed_out.load(), 0);
  EXPECT_EQ(inside.size(), 5u);
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
