// Concurrency contract of the per-seed trace cache: hammered from the
// thread pool, every key is inserted exactly once (the factory runs once
// per key, outside the shard lock), returned references stay stable for
// the cache's lifetime, the sharded hit/miss counters sum to the exact
// lookup totals after the pool drains, a running factory never blocks
// other keys of its shard, and a throwing factory leaves its key
// retryable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"
#include "support/trace_cache.hpp"

namespace loom::support {
namespace {

using Value = std::vector<std::uint64_t>;

Value value_for(std::uint64_t key) { return {key, key * 2 + 1, key ^ 0xffu}; }

TEST(TraceCache, MissThenHitWithStableReference) {
  TraceCache<Value> cache;
  bool inserted = false;
  const Value& first = cache.get_or_emplace(7, [] { return value_for(7); },
                                            &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(first, value_for(7));

  int factory_calls = 0;
  const Value& second = cache.get_or_emplace(
      7,
      [&factory_calls] {
        ++factory_calls;
        return Value{};
      },
      &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(factory_calls, 0) << "a hit must not run the factory";
  EXPECT_EQ(&first, &second) << "references must be stable across lookups";

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.lookups(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TraceCache, ShardCountRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(TraceCache<int>(0).shard_count(), 1u);
  EXPECT_EQ(TraceCache<int>(1).shard_count(), 1u);
  EXPECT_EQ(TraceCache<int>(5).shard_count(), 8u);
  EXPECT_EQ(TraceCache<int>(16).shard_count(), 16u);
}

TEST(TraceCache, HammeredFromTheThreadPool) {
  constexpr std::size_t kKeys = 37;        // spills over every shard
  constexpr std::size_t kLookups = 8000;   // ~216 lookups per key
  TraceCache<Value> cache(/*shard_count=*/8);

  std::atomic<std::uint64_t> factory_calls[kKeys] = {};
  std::atomic<const Value*> observed[kKeys] = {};
  std::atomic<std::size_t> mismatches{0};

  ThreadPool pool(8);
  pool.for_each_index(kLookups, [&](std::size_t i) {
    const std::uint64_t key = i % kKeys;
    const Value& v = cache.get_or_emplace(key, [&] {
      factory_calls[key].fetch_add(1, std::memory_order_relaxed);
      return value_for(key);
    });
    if (v != value_for(key)) mismatches.fetch_add(1);
    // Every thread must see the one stored copy: publish the first
    // observed address and compare all later ones against it.
    const Value* expected = nullptr;
    if (!observed[key].compare_exchange_strong(expected, &v) &&
        expected != &v) {
      mismatches.fetch_add(1);
    }
  });

  EXPECT_EQ(mismatches.load(), 0u);
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(factory_calls[k].load(), 1u)
        << "key " << k << " must be generated exactly once";
  }
  EXPECT_EQ(cache.size(), kKeys);

  // After wait_idle() (inside for_each_index) the counters are exact:
  // one miss per key, everything else a hit, nothing lost in the merge
  // across shards.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.hits, kLookups - kKeys);
  EXPECT_EQ(stats.lookups(), kLookups);
}

TEST(TraceCache, DistinctKeysGetDistinctEntries) {
  TraceCache<Value> cache(2);
  const Value& a = cache.get_or_emplace(1, [] { return value_for(1); });
  const Value& b = cache.get_or_emplace(2, [] { return value_for(2); });
  // Keys that collide on a shard must still be distinct entries.
  const Value& c =
      cache.get_or_emplace(1 + (1ull << 32), [] { return value_for(99); });
  EXPECT_NE(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a, value_for(1));
  EXPECT_EQ(b, value_for(2));
  EXPECT_EQ(c, value_for(99));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(TraceCache, ARunningFactoryDoesNotBlockOtherKeysOfItsShard) {
  TraceCache<Value> cache(/*shard_count=*/1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread builder([&] {
    cache.get_or_emplace(1, [&] {
      started.set_value();
      released.wait();
      return value_for(1);
    });
  });
  started.get_future().wait();
  // Key 2 shares the only shard with key 1, whose factory is still blocked.
  auto other = std::async(std::launch::async, [&cache] {
    return cache.get_or_emplace(2, [] { return value_for(2); });
  });
  const bool finished =
      other.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  builder.join();
  ASSERT_TRUE(finished) << "a build held the shard's lock";
  EXPECT_EQ(other.get(), value_for(2));
  EXPECT_EQ(cache.get_or_emplace(1, [] { return Value{}; }), value_for(1));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TraceCache, ConcurrentCallersForOneKeyWaitForTheOneFactory) {
  TraceCache<Value> cache(/*shard_count=*/1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> factory_calls{0};
  auto make = [&] {
    if (factory_calls.fetch_add(1) == 0) {
      started.set_value();
      released.wait();
    }
    return value_for(5);
  };
  bool first_inserted = false;
  std::thread builder(
      [&] { cache.get_or_emplace(5, make, &first_inserted); });
  started.get_future().wait();
  bool second_inserted = true;
  auto waiter = std::async(std::launch::async, [&] {
    return &cache.get_or_emplace(5, make, &second_inserted);
  });
  // The waiter cannot finish while the one factory for key 5 is blocked.
  EXPECT_EQ(waiter.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  release.set_value();
  builder.join();
  const Value* seen = waiter.get();
  EXPECT_EQ(*seen, value_for(5));
  EXPECT_EQ(factory_calls.load(), 1);
  EXPECT_TRUE(first_inserted);
  EXPECT_FALSE(second_inserted);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(TraceCache, AThrowingFactoryLeavesTheKeyRetryable) {
  TraceCache<Value> cache;
  int calls = 0;
  auto flaky = [&calls]() -> Value {
    if (++calls == 1) throw std::runtime_error("generation failed");
    return value_for(3);
  };
  EXPECT_THROW(cache.get_or_emplace(3, flaky), std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  bool inserted = false;
  const Value& v = cache.get_or_emplace(3, flaky, &inserted);
  EXPECT_TRUE(inserted) << "the next caller runs the factory again";
  EXPECT_EQ(v, value_for(3));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(&cache.get_or_emplace(3, flaky), &v);
  EXPECT_EQ(calls, 2);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // the failed call ran a factory too
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace loom::support
