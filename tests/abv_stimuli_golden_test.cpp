// Golden digests of the stimuli generator: every trace generate_valid()
// writes, and the Rng state it leaves behind, for the benchmark's property
// shapes under three StimuliOptions.  The digests were recorded with the
// std::function-dispatch generator; any rewrite of the generator must draw
// from the Rng in the same order and write the same events.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "abv/stimuli.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fold(std::uint64_t& h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= kFnvPrime;
  }
}

void fold(std::uint64_t& h, const std::string& text) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  fold(h, text.size());
}

// The perfbench seeds_wide properties plus the two mutants_long ones (the
// antecedent is shared between the two workloads).
const char* const kProperties[] = {
    "(({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(p[2,3] => q[1,4] < r, 1ms)",
    "(n << i, true)",
    "(n1 => n2 < n3 < n4, 1ms)",
};

StimuliOptions options_at(std::size_t k) {
  StimuliOptions o;
  if (k == 1) {  // seeds_wide
    o.rounds = 16;
    o.noise_permille = 100;
  } else if (k == 2) {  // mutants_long, with more noise names and gaps
    o.rounds = 64;
    o.noise_permille = 300;
    o.noise_names = 3;
    o.max_gap_ns = 7;
  }
  return o;
}

// Folds 20 seeds' traces (size, then each event's name text and time) and
// the next draw of each seed's Rng after generation, which pins how many
// draws generation made.
std::uint64_t digest(const char* property, const StimuliOptions& options) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(property, ab);
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    support::Rng rng = support::Rng::stream(seed, 0);
    const spec::Trace t = generate_valid(p, ab, rng, options);
    fold(h, t.size());
    for (const spec::TimedEvent& ev : t) {
      fold(h, ab.text(ev.name));
      fold(h, ev.time.picoseconds());
    }
    fold(h, rng.next());
  }
  return h;
}

// kGolden[property][options]
constexpr std::uint64_t kGolden[5][3] = {
    {0x73657bcff8f00af9ULL, 0x57eb9a56ca0af4aaULL, 0xc9220ab8a010df90ULL},
    {0x4ea61998fb1fcc34ULL, 0x5b19703af8143c69ULL, 0xbe1ff22ba6dd8504ULL},
    {0x67b486bab02d62c7ULL, 0xf0a3ae9eae0b1c92ULL, 0x21b98d0c9ef6524aULL},
    {0x22517417d418086bULL, 0x2bf72df3e9afed23ULL, 0x26d7726a9cbfb8b0ULL},
    {0x32befde68382bcf0ULL, 0xb50231a199fd47aeULL, 0x83480a97f67e7decULL},
};

TEST(StimuliGolden, TracesAndDrawsMatchTheRecordedDigests) {
  for (std::size_t p = 0; p < 5; ++p) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(digest(kProperties[p], options_at(k)), kGolden[p][k])
          << std::hex << "0x" << digest(kProperties[p], options_at(k))
          << " property " << kProperties[p] << ", options " << k;
    }
  }
}

}  // namespace
}  // namespace loom::abv
