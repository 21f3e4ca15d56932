// Deterministic pseudo-random generator for stimuli generation and tests.
//
// xoshiro256** seeded through splitmix64; reproducible across platforms,
// which matters for the randomized monitor-equivalence tests.
#pragma once

#include <cstdint>

namespace loom::support {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives an independent reproducible stream: the same (seed, stream)
  /// pair yields the same sequence no matter which thread consumes it, and
  /// different stream indices decorrelate even for consecutive seeds.  The
  /// parallel campaign engine keys streams by work-unit index.
  static Rng stream(std::uint64_t seed, std::uint64_t stream_index);

  std::uint64_t next();

  /// Uniform value in [0, bound); bound must be > 0.  Rejection sampling
  /// without modulo bias: the 2^64 mod bound smallest draws are rejected.
  /// That threshold is always below `bound`, so a draw at or above `bound`
  /// is accepted without computing it — one division in the common case.
  /// Defined here so constant bounds fold to multiplications.
  std::uint64_t below(std::uint64_t bound) {
    std::uint64_t r = next();
    if (r >= bound) return r % bound;
    const std::uint64_t threshold = -bound % bound;
    while (r < threshold) r = next();
    return r % bound;
  }

  /// Uniform value in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Bernoulli draw with probability `num/den`.
  bool chance(std::uint32_t num, std::uint32_t den) {
    return below(den) < num;
  }

  /// Uniform double in [0, 1).
  double uniform01();

 private:
  std::uint64_t s_[4];
};

}  // namespace loom::support
