// ABV framework tests: stimuli generation, mutation injection, checker
// aggregation, coverage, trace I/O.
#include <gtest/gtest.h>

#include "abv/checker.hpp"
#include "abv/coverage.hpp"
#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "abv/trace.hpp"
#include "psl/clause_monitor.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

using loom::testing::parse;

const char* kProperties[] = {
    "(n << i, true)",
    "(n[2,4] << i, true)",
    "(({a, b, c}, &) << s, false)",
    "(({a, b}, |) < c << i, true)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(p => q, 100ns)",
    "(p[2,3] => q[1,4] < r, 10us)",
    "(({u, w}, &) => q < r[2,3], 1ms)",
};

class StimuliValid : public ::testing::TestWithParam<const char*> {};

TEST_P(StimuliValid, GeneratedTracesAreAccepted) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    spec::Alphabet ab;
    auto p = parse(GetParam(), ab);
    support::Rng rng(seed);
    StimuliOptions opt;
    opt.rounds = 1 + seed % 4;
    opt.noise_permille = seed % 2 == 0 ? 200 : 0;
    const spec::Trace t = generate_valid(p, ab, rng, opt);
    ASSERT_FALSE(t.empty());
    const sim::Time end = t.back().time;
    const auto ref = spec::reference_check(p, t, end);
    EXPECT_NE(ref.verdict, spec::RefVerdict::Rejected)
        << GetParam() << " seed " << seed << ": " << ref.reason.text() << " at "
        << ref.error_index;

    // The Drct monitor agrees.
    auto m = mon::make_monitor(p);
    loom::testing::run_monitor(*m, t, end);
    EXPECT_NE(m->verdict(), mon::Verdict::Violated)
        << GetParam() << " seed " << seed
        << (m->violation() ? ": " + m->violation()->to_string(ab) : "");
  }
}

INSTANTIATE_TEST_SUITE_P(Properties, StimuliValid,
                         ::testing::ValuesIn(kProperties));

TEST(Stimuli, AntecedentRoundsEndWithTriggers) {
  spec::Alphabet ab;
  auto p = parse("(n << i, true)", ab);
  support::Rng rng(3);
  StimuliOptions opt;
  opt.rounds = 5;
  const spec::Trace t = generate_valid(p, ab, rng, opt);
  std::size_t triggers = 0;
  for (const auto& ev : t) {
    if (ev.name == *ab.lookup("i")) ++triggers;
  }
  EXPECT_EQ(triggers, 5u);
  EXPECT_EQ(t.back().name, *ab.lookup("i"));
}

TEST(Stimuli, TimedRoundsMeetTheDeadline) {
  spec::Alphabet ab;
  auto p = parse("(p[2,3] => q[1,4] < r, 1us)", ab);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    support::Rng rng(seed);
    StimuliOptions opt;
    opt.rounds = 3;
    const spec::Trace t = generate_valid(p, ab, rng, opt);
    const auto ref = spec::reference_check(p, t, t.back().time);
    EXPECT_NE(ref.verdict, spec::RefVerdict::Rejected)
        << "seed " << seed << ": " << ref.reason.text();
  }
}

class MutationDetection
    : public ::testing::TestWithParam<MutationKind> {};

TEST_P(MutationDetection, ReferenceAndMonitorsAgreeOnMutants) {
  // Mutants are not all invalid; whatever the reference says, the Drct
  // monitor must agree, and invalid mutants must be detected.
  std::size_t rejected = 0, produced = 0;
  for (const char* src : kProperties) {
    spec::Alphabet ab;
    auto p = parse(src, ab);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      support::Rng rng(seed * 77);
      StimuliOptions opt;
      opt.rounds = 2;
      const spec::Trace valid = generate_valid(p, ab, rng, opt);
      auto mutant = mutate(valid, GetParam(), p, rng);
      if (!mutant.has_value()) continue;
      ++produced;
      const sim::Time end = mutant->trace.empty()
                                ? sim::Time::zero()
                                : mutant->trace.back().time;
      const auto ref = spec::reference_check(p, mutant->trace, end);
      if (ref.verdict == spec::RefVerdict::Rejected) ++rejected;

      auto m = mon::make_monitor(p);
      loom::testing::run_monitor(*m, mutant->trace, end);
      EXPECT_EQ(loom::testing::as_ref(m->verdict()), ref.verdict)
          << src << " + " << to_string(GetParam()) << " seed " << seed;
    }
  }
  EXPECT_GT(produced, 0u);
  // Every mutation class must be able to produce detected violations.
  EXPECT_GT(rejected, 0u) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, MutationDetection,
    ::testing::Values(MutationKind::Drop, MutationKind::Duplicate,
                      MutationKind::SwapAdjacent, MutationKind::EarlyTrigger,
                      MutationKind::StallDeadline));

TEST(Checker, AggregatesMixedMonitors) {
  spec::Alphabet ab;
  auto p = parse("(n << i, true)", ab);
  Checker checker;
  checker.add("drct", mon::make_monitor(p));
  checker.add("viapsl", std::make_unique<psl::ClauseMonitor>(psl::encode(p)));

  const spec::Trace good = loom::testing::trace_of("n i n i", ab);
  checker.run(good, good.back().time);
  EXPECT_TRUE(checker.all_passing());
  EXPECT_EQ(checker.violation_count(), 0u);

  Checker checker2;
  checker2.add("drct", mon::make_monitor(p));
  checker2.add("viapsl", std::make_unique<psl::ClauseMonitor>(psl::encode(p)));
  const spec::Trace bad = loom::testing::trace_of("i", ab);
  checker2.run(bad, bad.back().time);
  EXPECT_FALSE(checker2.all_passing());
  EXPECT_EQ(checker2.violation_count(), 2u);
  const auto reports = checker2.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].name, "drct");
  EXPECT_EQ(reports[0].verdict, mon::Verdict::Violated);
  ASSERT_TRUE(reports[1].violation.has_value());
  EXPECT_NE(checker2.summary(ab).find("violated"), std::string::npos);
}

TEST(Coverage, AlphabetCoverageTracksMisses) {
  spec::Alphabet ab;
  auto p = parse("(({a, b, c}, &) << s, false)", ab);
  AlphabetCoverage cov(p.alphabet());
  EXPECT_EQ(cov.total(), 4u);
  cov.record(*ab.lookup("a"));
  cov.record(*ab.lookup("s"));
  cov.record(*ab.lookup("a"));        // repeat: no double counting
  cov.record(ab.name("unrelated"));   // outside the alphabet: ignored
  EXPECT_EQ(cov.covered(), 2u);
  EXPECT_DOUBLE_EQ(cov.ratio(), 0.5);
  const auto report = cov.report(ab);
  EXPECT_NE(report.find("b"), std::string::npos);
  EXPECT_NE(report.find("c"), std::string::npos);
}

TEST(Coverage, RecognizerCoverageGrowsWithStimuli) {
  spec::Alphabet ab;
  auto p = parse("(({a, b}, &) < c[2,4] << i, true)", ab);
  mon::AntecedentMonitor m(p.antecedent());
  RecognizerCoverage cov(m);
  cov.sample(m);
  const double before = cov.state_ratio();

  support::Rng rng(5);
  StimuliOptions opt;
  opt.rounds = 6;
  const spec::Trace t = generate_valid(spec::Property(p.antecedent()), ab,
                                       rng, opt);
  for (const auto& ev : t) {
    m.observe(ev.name, ev.time);
    cov.sample(m);
  }
  EXPECT_GT(cov.state_ratio(), before);
  EXPECT_GE(cov.lo_bound_hits(), 1u);
  const auto report = cov.report(ab);
  EXPECT_NE(report.find("c[2,4]"), std::string::npos);
}

TEST(TraceIo, RoundTrip) {
  spec::Alphabet ab;
  const spec::Trace t = loom::testing::timed_trace_of("a@10 b@25 a@30", ab);
  const std::string text = to_text(t, ab);
  support::DiagnosticSink sink;
  spec::Alphabet ab2;
  auto parsed = from_text(text, ab2, sink);
  ASSERT_TRUE(parsed.has_value()) << sink.to_string();
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ(ab2.text((*parsed)[0].name), "a");
  EXPECT_EQ((*parsed)[1].time, sim::Time::ns(25));
}

TEST(TraceIo, RejectsGarbage) {
  spec::Alphabet ab;
  support::DiagnosticSink sink;
  EXPECT_FALSE(from_text("no-at-sign\n", ab, sink).has_value());
  support::DiagnosticSink sink2;
  EXPECT_FALSE(from_text("a@notanumber\n", ab, sink2).has_value());
  support::DiagnosticSink sink3;
  auto t = from_text("# comment\n\na@5\n", ab, sink3);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size(), 1u);
}

TEST(TraceRecorderTest, AccumulatesEvents) {
  TraceRecorder rec;
  rec.record(3, sim::Time::ns(1));
  rec.record(4, sim::Time::ns(2));
  EXPECT_EQ(rec.trace().size(), 2u);
  rec.clear();
  EXPECT_TRUE(rec.trace().empty());
}

}  // namespace
}  // namespace loom::abv
