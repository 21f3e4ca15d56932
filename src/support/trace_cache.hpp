// Concurrent, insert-only, per-seed cache for recorded traces.
//
// The parallel campaign engine runs six work units per seed (the valid
// phase plus five mutation kinds) and every one of them needs the seed's
// valid trace.  The trace is a pure function of the seed, so the first
// unit to ask generates it once and the other five reuse the stored copy.
// The cache is sharded by a mixed key hash: each shard is an independent
// mutex + hash map, so units of different seeds almost never contend, and
// values are heap-allocated so the returned references stay stable across
// rehashes for the cache's whole lifetime (entries are never removed).
//
// The lock is held only to look up or claim a key, never while a factory
// runs: get_or_emplace() inserts a per-key once-slot under its shard's
// lock, marks it as building, and runs the factory after releasing the
// lock.  That gives exactly-once generation per key — concurrent calls for
// the same seed wait on the shard's condition variable until the one
// build is published, then observe the stored value — while a build never
// blocks lookups of other keys that share its shard.  A factory that
// throws returns the slot to empty and the next caller for the key runs
// its own.  (A std::once_flag would do the same but for the throw: under
// ThreadSanitizer's pthread_once a throwing call_once leaves the flag
// stuck and the retry hangs.)
// Per-shard hit/miss counters are relaxed atomics — they are accounting,
// not synchronization — and stats() sums them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

namespace loom::support {

template <typename Trace>
class TraceCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;    // lookups that found an existing entry
    std::uint64_t misses = 0;  // lookups that ran the factory

    std::uint64_t lookups() const { return hits + misses; }
  };

  /// `shard_count` is rounded up to a power of two (minimum 1).
  explicit TraceCache(std::size_t shard_count = 16) {
    std::size_t n = 1;
    while (n < shard_count) n <<= 1;
    mask_ = n - 1;
    shards_ = std::make_unique<Shard[]>(n);
  }

  TraceCache(const TraceCache&) = delete;
  TraceCache& operator=(const TraceCache&) = delete;

  /// Returns the cached trace for `key`, running `make()` to produce it on
  /// first sight.  The reference stays valid for the cache's lifetime.
  /// When `inserted` is non-null it is set to whether this call ran the
  /// factory (miss) or found an existing entry (hit).  A call that finds
  /// the key's factory running waits for it, then hits.  A factory that
  /// throws propagates out of this call (still a miss) and leaves the key
  /// empty, so the next call for it runs its own factory.
  template <typename Factory>
  const Trace& get_or_emplace(std::uint64_t key, Factory&& make,
                              bool* inserted = nullptr) {
    Shard& shard = shards_[mix(key) & mask_];
    Slot* slot = nullptr;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      std::unique_ptr<Slot>& entry = shard.entries[key];
      if (entry == nullptr) entry = std::make_unique<Slot>();
      slot = entry.get();
      shard.built.wait(lock,
                       [slot] { return slot->state != State::kBuilding; });
      if (slot->state == State::kReady) {
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        if (inserted != nullptr) *inserted = false;
        return *slot->value;
      }
      slot->state = State::kBuilding;  // this call builds; others wait
    }
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    if (inserted != nullptr) *inserted = true;
    State outcome = State::kEmpty;
    try {
      slot->value.emplace(std::forward<Factory>(make)());
      outcome = State::kReady;
    } catch (...) {
      publish(shard, *slot, outcome);
      throw;
    }
    publish(shard, *slot, outcome);
    return *slot->value;
  }

  /// Sums the per-shard counters.  Exact once concurrent users quiesce
  /// (e.g. after ThreadPool::wait_idle()); a snapshot before that.
  Stats stats() const {
    Stats total;
    for (std::size_t i = 0; i <= mask_; ++i) {
      total.hits += shards_[i].hits.load(std::memory_order_relaxed);
      total.misses += shards_[i].misses.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Number of cached entries (== stats().misses once quiescent, unless a
  /// factory threw).
  std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i <= mask_; ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mutex);
      for (const auto& [key, slot] : shards_[i].entries) {
        if (slot->state == State::kReady) ++n;
      }
    }
    return n;
  }

  std::size_t shard_count() const { return mask_ + 1; }

 private:
  enum class State { kEmpty, kBuilding, kReady };

  // One key's entry.  `state` is guarded by the shard's mutex; `value` is
  // written by the one building call outside it and read only once
  // `state` is kReady.  Slots are heap-allocated, so the value's address
  // is stable across rehashes.
  struct Slot {
    State state = State::kEmpty;
    std::optional<Trace> value;
  };

  struct Shard {
    mutable std::mutex mutex;  // guards `entries` and the slots' states
    std::condition_variable built;  // some slot left kBuilding
    std::unordered_map<std::uint64_t, std::unique_ptr<Slot>> entries;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };

  // Ends a build: the slot becomes `outcome` (kReady, or kEmpty after a
  // throw) and every call waiting on the shard re-checks its slot.
  static void publish(Shard& shard, Slot& slot, State outcome) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      slot.state = outcome;
    }
    shard.built.notify_all();
  }

  // splitmix64 finalizer: sequential seeds land on different shards.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::size_t mask_ = 0;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace loom::support
