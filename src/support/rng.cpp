#include "support/rng.hpp"

namespace loom::support {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream_index) {
  // Mix the stream index through splitmix64 before folding it into the
  // seed so that low-entropy indices (0, 1, 2, ...) land far apart.
  std::uint64_t x = stream_index + 0x632be59bd9b4e019ULL;
  return Rng(seed ^ splitmix64(x));
}

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
  // Avoid the all-zero state, which is a fixed point of xoshiro.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

}  // namespace loom::support
