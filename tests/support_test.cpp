#include <gtest/gtest.h>

#include <vector>

#include "mon/compiled.hpp"
#include "support/args.hpp"
#include "support/bitset.hpp"
#include "support/diagnostics.hpp"
#include "support/interner.hpp"
#include "support/rng.hpp"

namespace loom::support {
namespace {

TEST(Bitset, StartsEmpty) {
  Bitset b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.count(), 0u);
  EXPECT_FALSE(b.test(0));
  EXPECT_FALSE(b.test(1000));
}

TEST(Bitset, SetTestReset) {
  Bitset b;
  b.set(3);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(3));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(4));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, GrowsAutomatically) {
  Bitset b(4);
  b.set(700);
  EXPECT_TRUE(b.test(700));
  EXPECT_GE(b.capacity(), 701u);
}

TEST(Bitset, UnionIntersection) {
  Bitset a, b;
  a.set(1);
  a.set(65);
  b.set(65);
  b.set(2);
  Bitset u = a | b;
  EXPECT_TRUE(u.test(1));
  EXPECT_TRUE(u.test(2));
  EXPECT_TRUE(u.test(65));
  Bitset i = a & b;
  EXPECT_FALSE(i.test(1));
  EXPECT_FALSE(i.test(2));
  EXPECT_TRUE(i.test(65));
}

TEST(Bitset, SubtractRemovesElements) {
  Bitset a, b;
  a.set(1);
  a.set(2);
  a.set(3);
  b.set(2);
  a.subtract(b);
  EXPECT_TRUE(a.test(1));
  EXPECT_FALSE(a.test(2));
  EXPECT_TRUE(a.test(3));
}

TEST(Bitset, IntersectsAndSubset) {
  Bitset a, b, c;
  a.set(10);
  b.set(10);
  b.set(20);
  c.set(30);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  Bitset empty;
  EXPECT_TRUE(empty.is_subset_of(a));
  EXPECT_FALSE(empty.intersects(a));
}

TEST(Bitset, EqualityIgnoresCapacity) {
  Bitset a(10), b(1000);
  a.set(5);
  b.set(5);
  EXPECT_EQ(a, b);
  b.set(700);
  EXPECT_FALSE(a == b);
}

TEST(Bitset, FirstNextIteration) {
  Bitset b;
  b.set(7);
  b.set(63);
  b.set(64);
  b.set(200);
  EXPECT_EQ(b.first(), 7u);
  EXPECT_EQ(b.next(7), 63u);
  EXPECT_EQ(b.next(63), 64u);
  EXPECT_EQ(b.next(64), 200u);
  EXPECT_EQ(b.next(200), Bitset::npos);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{7, 63, 64, 200}));
}

TEST(Bitset, ToString) {
  Bitset b;
  b.set(1);
  b.set(4);
  EXPECT_EQ(b.to_string(), "{1, 4}");
  EXPECT_EQ(Bitset{}.to_string(), "{}");
}

TEST(Interner, InternIsIdempotent) {
  Interner in;
  const auto a = in.intern("set_imgAddr");
  const auto b = in.intern("set_glAddr");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.intern("set_imgAddr"), a);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.name(a), "set_imgAddr");
}

TEST(Interner, LookupWithoutInsert) {
  Interner in;
  EXPECT_FALSE(in.lookup("missing").has_value());
  const auto id = in.intern("x");
  ASSERT_TRUE(in.lookup("x").has_value());
  EXPECT_EQ(*in.lookup("x"), id);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(a.next(), b.next());
  Rng a2(42);
  EXPECT_NE(a2.next(), c.next());
}

TEST(Rng, BelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

// The rejection sampler below() replaced, computing the threshold on
// every call: new and old must draw the same values from the same stream.
std::uint64_t two_division_below(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = -bound % bound;
  while (true) {
    const std::uint64_t r = rng.next();
    if (r >= threshold) return r % bound;
  }
}

TEST(Rng, BelowDrawsWhatTheTwoDivisionFormulaDraws) {
  // Small bounds almost never reject; bounds just past 2^63 reject about
  // half of all draws, so both branches are compared.
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 1; b <= 4096; ++b) bounds.push_back(b);
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  for (const std::uint64_t b :
       {kHalf - 1, kHalf, kHalf + 1, kHalf + 3, kHalf + 12345, ~std::uint64_t{0}}) {
    bounds.push_back(b);
  }
  for (const std::uint64_t bound : bounds) {
    Rng fresh = Rng::stream(0xb0, bound);
    Rng old = fresh;
    bool same = true;
    for (int i = 0; i < 100000 && same; ++i) {
      same = fresh.below(bound) == two_division_below(old, bound);
    }
    ASSERT_TRUE(same) << "bound " << bound;
    ASSERT_EQ(fresh.next(), old.next()) << "bound " << bound;
  }
}

TEST(Rng, BetweenInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InRange) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Diagnostics, CollectsAndCounts) {
  DiagnosticSink sink;
  EXPECT_TRUE(sink.ok());
  sink.warning({1, 2}, "careful");
  EXPECT_TRUE(sink.ok());
  sink.error({3, 4}, "broken");
  EXPECT_FALSE(sink.ok());
  EXPECT_EQ(sink.error_count(), 1u);
  EXPECT_EQ(sink.all().size(), 2u);
  EXPECT_NE(sink.to_string().find("3:4: error: broken"), std::string::npos);
}

TEST(Args, ParsePositiveAcceptsPlainDecimals) {
  EXPECT_EQ(parse_positive("1"), std::size_t{1});
  EXPECT_EQ(parse_positive("32"), std::size_t{32});
  EXPECT_EQ(parse_positive("007"), std::size_t{7});
  // The largest count representable on this platform round-trips.
  const auto max = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(parse_positive(std::to_string(max).c_str()), max);
}

TEST(Args, ParsePositiveRejectsGarbageSignsWhitespaceAndOverflow) {
  // Full-match parse: anything strtoull would have truncated or skipped is
  // a rejection, so "--checkpoint-stride=5x" and an overflowing
  // "--threads=99999999999999999999" become usage errors, not surprises.
  EXPECT_EQ(parse_positive(nullptr), std::nullopt);
  EXPECT_EQ(parse_positive(""), std::nullopt);
  EXPECT_EQ(parse_positive("0"), std::nullopt);
  EXPECT_EQ(parse_positive("5x"), std::nullopt);
  EXPECT_EQ(parse_positive("x5"), std::nullopt);
  EXPECT_EQ(parse_positive("+5"), std::nullopt);
  EXPECT_EQ(parse_positive("-1"), std::nullopt);
  EXPECT_EQ(parse_positive(" 5"), std::nullopt);
  EXPECT_EQ(parse_positive("5 "), std::nullopt);
  EXPECT_EQ(parse_positive("5\t"), std::nullopt);
  EXPECT_EQ(parse_positive("0x10"), std::nullopt);
  EXPECT_EQ(parse_positive("99999999999999999999"), std::nullopt);  // > 2^64
  EXPECT_EQ(parse_positive("18446744073709551616"), std::nullopt);  // 2^64
}

TEST(Args, ParseCountFallsBackOnlyWhenTheArgumentIsAbsent) {
  char prog[] = "prog";
  char good[] = "12";
  char bad[] = "12x";
  char huge[] = "99999999999999999999";
  {
    char* argv[] = {prog, good};
    EXPECT_EQ(parse_count(2, argv, 1, 7), std::size_t{12});
    EXPECT_EQ(parse_count(1, argv, 1, 7), std::size_t{7});  // missing → fallback
  }
  {
    // Present but malformed is nullopt — the caller exits 2, it does not
    // silently run the sweep with the fallback.
    char* argv[] = {prog, bad};
    EXPECT_EQ(parse_count(2, argv, 1, 7), std::nullopt);
  }
  {
    char* argv[] = {prog, huge};
    EXPECT_EQ(parse_count(2, argv, 1, 7), std::nullopt);
  }
}

TEST(Args, ParseOnOffIsExact) {
  EXPECT_EQ(parse_on_off("on"), true);
  EXPECT_EQ(parse_on_off("off"), false);
  EXPECT_EQ(parse_on_off(nullptr), std::nullopt);
  EXPECT_EQ(parse_on_off(""), std::nullopt);
  EXPECT_EQ(parse_on_off("On"), std::nullopt);
  EXPECT_EQ(parse_on_off("ON"), std::nullopt);
  EXPECT_EQ(parse_on_off("on "), std::nullopt);
  EXPECT_EQ(parse_on_off(" off"), std::nullopt);
  EXPECT_EQ(parse_on_off("true"), std::nullopt);
}

TEST(Args, ParseBackendCoversEverySpellingTheClisAccept) {
  // The one parser behind loomcheck's --backend=, parallel_campaign's and
  // bench_scaling's positional backend: every enumerator round-trips, and
  // an unknown spelling is nullopt — which each CLI turns into its usage
  // text and exit status 2, never a silent Auto fallback.
  EXPECT_EQ(mon::parse_backend("auto"), mon::Backend::Auto);
  EXPECT_EQ(mon::parse_backend("drct"), mon::Backend::Drct);
  EXPECT_EQ(mon::parse_backend("viapsl"), mon::Backend::ViaPSL);
  EXPECT_EQ(mon::parse_backend(""), std::nullopt);
  EXPECT_EQ(mon::parse_backend("Drct"), std::nullopt);  // case-sensitive
  EXPECT_EQ(mon::parse_backend("drct "), std::nullopt); // no trimming
  EXPECT_EQ(mon::parse_backend("vm"), std::nullopt);    // removed backend
  EXPECT_EQ(mon::parse_backend("psl"), std::nullopt);
  EXPECT_EQ(mon::parse_backend("bytecode"), std::nullopt);
}

TEST(Args, ParseBackendArgFallsBackOnlyWhenAbsent) {
  char prog[] = "prog";
  char drct[] = "drct";
  char bad[] = "wasm";
  char vm[] = "vm";
  {
    char* argv[] = {prog, drct};
    EXPECT_EQ(mon::parse_backend_arg(2, argv, 1), mon::Backend::Drct);
    EXPECT_EQ(mon::parse_backend_arg(1, argv, 1), mon::Backend::Auto);
  }
  {
    // Present but unknown is nullopt — the bench/example mains exit 2.
    char* argv[] = {prog, bad};
    EXPECT_EQ(mon::parse_backend_arg(2, argv, 1), std::nullopt);
  }
  {
    // The removed bytecode backend's spelling is unknown like any other.
    char* argv[] = {prog, vm};
    EXPECT_EQ(mon::parse_backend_arg(2, argv, 1), std::nullopt);
  }
}

}  // namespace
}  // namespace loom::support
