// Structure of the §5 encodings and of the run-length lexer.
#include <gtest/gtest.h>

#include <map>

#include "psl/cost_model.hpp"
#include "psl/rle_lexer.hpp"
#include "psl/translate.hpp"
#include "spec/parser.hpp"

namespace loom::psl {
namespace {

spec::Property parse(const std::string& src, spec::Alphabet& ab) {
  support::DiagnosticSink sink;
  auto p = spec::parse_property(src, ab, sink);
  EXPECT_TRUE(p.has_value()) << sink.to_string();
  return *p;
}

std::map<ClauseKind, std::size_t> count_by_kind(const Encoding& enc) {
  std::map<ClauseKind, std::size_t> out;
  for (const auto& c : enc.clauses) ++out[c.kind];
  return out;
}

TEST(Translate, SimplestAntecedent) {
  spec::Alphabet ab;
  auto p = parse("(n << i, true)", ab);
  Encoding enc = encode(p);
  EXPECT_EQ(enc.vocab.token_count(), 2u);  // n, i
  auto kinds = count_by_kind(enc);
  EXPECT_EQ(kinds[ClauseKind::Mutex], 1u);   // one pair
  EXPECT_EQ(kinds[ClauseKind::MaxOne], 1u);  // n
  EXPECT_EQ(kinds[ClauseKind::Range], 0u);   // single token per range
  EXPECT_EQ(kinds[ClauseKind::Order], 0u);   // one fragment
  EXPECT_EQ(kinds[ClauseKind::Before], 1u);
  EXPECT_EQ(kinds[ClauseKind::After], 1u);  // b = true
  EXPECT_FALSE(enc.retire_on_reset);
  EXPECT_EQ(enc.reset_tokens.count(), 1u);
}

TEST(Translate, NonRepeatedDropsAfterAndRetires) {
  spec::Alphabet ab;
  auto p = parse("(n << i, false)", ab);
  Encoding enc = encode(p);
  auto kinds = count_by_kind(enc);
  EXPECT_EQ(kinds[ClauseKind::After], 0u);
  EXPECT_TRUE(enc.retire_on_reset);
}

TEST(Translate, RangeUnfoldingIsQuadratic) {
  spec::Alphabet ab;
  auto p = parse("(n[2,5] << i, true)", ab);  // width 4
  Encoding enc = encode(p);
  EXPECT_EQ(enc.vocab.token_count(), 5u);  // n#2..n#5 + i
  auto kinds = count_by_kind(enc);
  EXPECT_EQ(kinds[ClauseKind::Mutex], 10u);   // C(5,2)
  EXPECT_EQ(kinds[ClauseKind::MaxOne], 4u);
  EXPECT_EQ(kinds[ClauseKind::Range], 12u);   // 4*3 ordered pairs
  EXPECT_EQ(kinds[ClauseKind::Before], 1u);
  EXPECT_EQ(kinds[ClauseKind::After], 1u);
  // Token texts carry the block length.
  EXPECT_EQ(enc.vocab.texts()[0].find("#2") != std::string::npos, true);
}

TEST(Translate, OrderClausesAreAdjacentFragmentProducts) {
  spec::Alphabet ab;
  auto p = parse("(({a, b}, &) < ({c[1,3], d}, |) < e << i, true)", ab);
  Encoding enc = encode(p);
  // Fragment token counts: 2, (3 + 1) = 4, 1.
  auto kinds = count_by_kind(enc);
  EXPECT_EQ(kinds[ClauseKind::Order], 2u * 4u + 4u * 1u);
  // Before groups: per range of ∧-fragments (a, b, e) + one per ∨-fragment.
  EXPECT_EQ(kinds[ClauseKind::Before], 4u);
  EXPECT_EQ(kinds[ClauseKind::After], 4u);
}

TEST(Translate, ClauseLimitThrows) {
  spec::Alphabet ab;
  auto p = parse("(n[100,60K] << i, true)", ab);
  EXPECT_THROW(encode(p, /*max_clauses=*/100000), std::length_error);
}

TEST(Translate, TimedChainUsesFinalFragmentAsReset) {
  spec::Alphabet ab;
  auto p = parse("(a => b[2,3] < c, 100ns)", ab);
  Encoding enc = encode(p);
  EXPECT_TRUE(enc.timed);
  EXPECT_EQ(enc.p_fragment_count, 1u);
  EXPECT_EQ(enc.bound, sim::Time::ns(100));
  // Reset = the c token.
  EXPECT_EQ(enc.reset_tokens.count(), 1u);
  // Fragment token groups present for timing.
  ASSERT_EQ(enc.fragments.size(), 3u);
  EXPECT_EQ(enc.fragments[1].per_range.size(), 1u);
  EXPECT_EQ(enc.fragments[1].per_range[0].count(), 2u);  // b#2, b#3
}

TEST(Translate, TimedMultiRangeFinalFragmentUnsupported) {
  spec::Alphabet ab;
  auto p = parse("(a => ({b, c}, &), 100ns)", ab);
  EXPECT_THROW(encode(p), std::invalid_argument);
}

TEST(CostModel, MatchesMaterializedEncodings) {
  const char* sources[] = {
      "(n << i, true)",
      "(n << i, false)",
      "(n[2,5] << i, true)",
      "(n[2,5] << i, false)",
      "(({n1, n2, n3, n4}, &) << i, false)",
      "(({n1, n2, n3, n4, n5}, &) << i, false)",
      "(({a, b}, &) < ({c[1,3], d}, |) < e << i, true)",
      "(({a, b}, |) < c[2,2] << i, false)",
      "(n1 => n2 < n3 < n4, 100ns)",
      "(a => b[2,3] < c, 100ns)",
      "(a < b[1,4] => c[2,3] < d, 1us)",
  };
  for (const char* src : sources) {
    spec::Alphabet ab;
    auto p = parse(src, ab);
    Encoding enc = encode(p);
    PslCost cost = estimate(p);
    EXPECT_EQ(cost.tokens, enc.vocab.token_count()) << src;
    EXPECT_EQ(cost.clauses, enc.clauses.size()) << src;
    EXPECT_EQ(cost.ops_per_token, enc.ops_per_token()) << src;
    EXPECT_EQ(cost.clause_bits, enc.clause_bits()) << src;
  }
}

TEST(CostModel, HugeRangeMatchesPaperOrderOfMagnitude) {
  spec::Alphabet ab;
  auto p = parse("(n[100,60K] << i, true)", ab);
  PslCost cost = estimate(p);
  // Width 59901: the encoding explodes quadratically (paper: ~4*10^11 ops,
  // ~2*10^12 bits for this row).  Exact constants differ; the order must
  // be >= 10^10.
  EXPECT_GT(cost.ops_per_token, 1e10);
  EXPECT_GT(cost.clause_bits, 1e9);
}

TEST(Lexer, TrivialNamesPassThrough) {
  spec::Alphabet ab;
  auto p = parse("(n << i, true)", ab);
  Encoding enc = encode(p);
  mon::MonitorStats stats;
  RleLexer lex(enc.vocab, stats);
  std::vector<spec::Name> out;
  const spec::Name n = *ab.lookup("n"), i = *ab.lookup("i");
  EXPECT_FALSE(lex.step(n, out).error);
  ASSERT_EQ(out.size(), 1u);  // eager emission at v=1
  EXPECT_FALSE(lex.step(i, out).error);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_FALSE(lex.block_open());
}

TEST(Lexer, BlocksEmitAtBoundary) {
  spec::Alphabet ab;
  auto p = parse("(n[2,4] << i, true)", ab);
  Encoding enc = encode(p);
  mon::MonitorStats stats;
  RleLexer lex(enc.vocab, stats);
  std::vector<spec::Name> out;
  const spec::Name n = *ab.lookup("n"), i = *ab.lookup("i");
  lex.step(n, out);
  lex.step(n, out);
  lex.step(n, out);
  EXPECT_TRUE(out.empty()) << "block still open below v";
  EXPECT_TRUE(lex.block_open());
  lex.step(i, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], enc.vocab.token_for(n, 3));
  EXPECT_EQ(out[1], enc.vocab.token_for(i, 1));
}

TEST(Lexer, EagerEmissionAtUpperBound) {
  spec::Alphabet ab;
  auto p = parse("(n[2,3] << i, true)", ab);
  Encoding enc = encode(p);
  mon::MonitorStats stats;
  RleLexer lex(enc.vocab, stats);
  std::vector<spec::Name> out;
  const spec::Name n = *ab.lookup("n");
  lex.step(n, out);
  lex.step(n, out);
  lex.step(n, out);  // count == v: emit now
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], enc.vocab.token_for(n, 3));
  // A fourth n exceeds the bound.
  EXPECT_TRUE(lex.step(n, out).error);
}

TEST(Lexer, BlockBelowMinimumIsError) {
  spec::Alphabet ab;
  auto p = parse("(n[2,4] << i, true)", ab);
  Encoding enc = encode(p);
  mon::MonitorStats stats;
  RleLexer lex(enc.vocab, stats);
  std::vector<spec::Name> out;
  lex.step(*ab.lookup("n"), out);
  const auto r = lex.step(*ab.lookup("i"), out);
  EXPECT_TRUE(r.error);
  EXPECT_NE(r.reason.text().find("below u=2"), std::string::npos);
}

TEST(Lexer, FinishEmitsOrReportsPending) {
  spec::Alphabet ab;
  auto p = parse("(n[2,4] << i, true)", ab);
  Encoding enc = encode(p);
  mon::MonitorStats stats;
  {
    RleLexer lex(enc.vocab, stats);
    std::vector<spec::Name> out;
    lex.step(*ab.lookup("n"), out);
    lex.step(*ab.lookup("n"), out);
    bool pending = true;
    EXPECT_FALSE(lex.finish(out, pending).error);
    EXPECT_FALSE(pending);
    ASSERT_EQ(out.size(), 1u);  // n#2 emitted at end of observation
  }
  {
    RleLexer lex(enc.vocab, stats);
    std::vector<spec::Name> out;
    lex.step(*ab.lookup("n"), out);
    bool pending = false;
    EXPECT_FALSE(lex.finish(out, pending).error);
    EXPECT_TRUE(pending);
    EXPECT_TRUE(out.empty());
  }
}

TEST(Lexer, SpaceBitsScaleWithBounds) {
  spec::Alphabet ab1, ab2;
  auto small = parse("(n << i, true)", ab1);
  auto big = parse("(n[100,60K] << i, true)", ab2);
  mon::MonitorStats stats;
  Encoding enc_small = encode(small);
  RleLexer lex_small(enc_small.vocab, stats);
  // The big encoding cannot be materialized; check the analytic lexer bits.
  PslCost cost_big = estimate(big);
  EXPECT_LT(lex_small.space_bits(), cost_big.lexer_bits);
  EXPECT_EQ(cost_big.lexer_bits,
            mon::bits_for_value(60000) + mon::bits_for_value(2) + 1);
}

}  // namespace
}  // namespace loom::psl
