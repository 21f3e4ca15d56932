// End-to-end tests of the Drct antecedent monitor, mirroring the reference
// oracle cases plus monitor-specific behaviour (retirement, diagnostics,
// stats, complexity bounds).
#include <gtest/gtest.h>

#include "testing.hpp"

namespace loom::mon {
namespace {

using loom::testing::as_ref;
using loom::testing::parse;
using loom::testing::run_monitor;
using loom::testing::trace_of;

struct Case {
  const char* property;
  const char* trace;
  spec::RefVerdict expected;
};

class AntecedentDrct : public ::testing::TestWithParam<Case> {};

TEST_P(AntecedentDrct, MatchesExpectedVerdict) {
  spec::Alphabet ab;
  auto p = parse(GetParam().property, ab);
  AntecedentMonitor m(p.antecedent());
  auto t = trace_of(GetParam().trace, ab);
  run_monitor(m, t);
  EXPECT_EQ(as_ref(m.verdict()), GetParam().expected)
      << GetParam().property << " on [" << GetParam().trace << "] -> "
      << to_string(m.verdict())
      << (m.violation() ? "\n  " + m.violation()->to_string(ab) : "");
}

INSTANTIATE_TEST_SUITE_P(
    SingleRange, AntecedentDrct,
    ::testing::Values(
        Case{"(n << i, true)", "", spec::RefVerdict::Accepted},
        Case{"(n << i, true)", "n i", spec::RefVerdict::Accepted},
        Case{"(n << i, true)", "n i n i n i", spec::RefVerdict::Accepted},
        Case{"(n << i, true)", "n", spec::RefVerdict::Pending},
        Case{"(n << i, true)", "i", spec::RefVerdict::Rejected},
        Case{"(n << i, true)", "n i i", spec::RefVerdict::Rejected},
        Case{"(n << i, true)", "n n i", spec::RefVerdict::Rejected},
        Case{"(n << i, false)", "n i i i", spec::RefVerdict::Accepted},
        Case{"(n << i, false)", "i", spec::RefVerdict::Rejected}));

INSTANTIATE_TEST_SUITE_P(
    Bounds, AntecedentDrct,
    ::testing::Values(
        Case{"(n[2,4] << i, true)", "n n i", spec::RefVerdict::Accepted},
        Case{"(n[2,4] << i, true)", "n n n n i", spec::RefVerdict::Accepted},
        Case{"(n[2,4] << i, true)", "n i", spec::RefVerdict::Rejected},
        Case{"(n[2,4] << i, true)", "n n n n n i",
             spec::RefVerdict::Rejected},
        Case{"(n[2,4] << i, true)", "n n n", spec::RefVerdict::Pending},
        Case{"(n[100,60K] << i, true)", "n n n", spec::RefVerdict::Pending}));

INSTANTIATE_TEST_SUITE_P(
    Fragments, AntecedentDrct,
    ::testing::Values(
        Case{"(({a, b, c}, &) << s, false)", "b c a s",
             spec::RefVerdict::Accepted},
        Case{"(({a, b, c}, &) << s, false)", "a c s",
             spec::RefVerdict::Rejected},
        Case{"(({a, b}, |) << i, true)", "b i a i",
             spec::RefVerdict::Accepted},
        Case{"(({a, b}, |) << i, true)", "i", spec::RefVerdict::Rejected},
        Case{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
             "n1 n2 n3 n3 n4 n5 i", spec::RefVerdict::Accepted},
        Case{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
             "n1 n2 n4 n5 i", spec::RefVerdict::Accepted},
        Case{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
             "n1 n2 n3 n5 i", spec::RefVerdict::Rejected},
        Case{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
             "n1 n3 n3 n5 i", spec::RefVerdict::Rejected}));

TEST(AntecedentMonitor, IgnoresIrrelevantNames) {
  spec::Alphabet ab;
  auto p = parse("(n << i, true)", ab);
  AntecedentMonitor m(p.antecedent());
  auto t = trace_of("x n y z i w", ab);
  run_monitor(m, t);
  EXPECT_EQ(m.verdict(), Verdict::Monitoring);
  EXPECT_EQ(m.validated_triggers(), 1u);
}

TEST(AntecedentMonitor, RetiresAfterFirstTriggerWhenNonRepeated) {
  spec::Alphabet ab;
  auto p = parse("(n << i, false)", ab);
  AntecedentMonitor m(p.antecedent());
  auto t = trace_of("n i n n n i i", ab);
  run_monitor(m, t);
  EXPECT_EQ(m.verdict(), Verdict::Holds);
  EXPECT_EQ(m.validated_triggers(), 1u);
}

TEST(AntecedentMonitor, ViolationCarriesDiagnostics) {
  spec::Alphabet ab;
  auto p = parse("(n[2,4] << i, true)", ab);
  AntecedentMonitor m(p.antecedent());
  auto t = trace_of("n i", ab);
  run_monitor(m, t);
  ASSERT_EQ(m.verdict(), Verdict::Violated);
  ASSERT_TRUE(m.violation().has_value());
  EXPECT_EQ(m.violation()->event_ordinal, 1u);
  EXPECT_EQ(m.violation()->time, sim::Time::ns(20));
  EXPECT_EQ(ab.text(m.violation()->name), "i");
  EXPECT_NE(m.violation()->text().find("below u=2"), std::string::npos);
}

TEST(AntecedentMonitor, StaysViolatedAfterError) {
  spec::Alphabet ab;
  auto p = parse("(n << i, true)", ab);
  AntecedentMonitor m(p.antecedent());
  auto t = trace_of("i n i n i", ab);
  run_monitor(m, t);
  EXPECT_EQ(m.verdict(), Verdict::Violated);
  EXPECT_EQ(m.violation()->event_ordinal, 0u);  // the first event
}

TEST(AntecedentMonitor, ResetRestoresInitialState) {
  spec::Alphabet ab;
  auto p = parse("(n << i, true)", ab);
  AntecedentMonitor m(p.antecedent());
  run_monitor(m, trace_of("i", ab));
  EXPECT_EQ(m.verdict(), Verdict::Violated);
  m.reset();
  EXPECT_EQ(m.verdict(), Verdict::Monitoring);
  EXPECT_EQ(m.stats().events, 0u);
  run_monitor(m, trace_of("n i", ab));
  EXPECT_EQ(m.verdict(), Verdict::Monitoring);
}

TEST(AntecedentMonitor, SpaceIsIndependentOfRangeWidthExceptCounter) {
  spec::Alphabet ab;
  auto p_small = parse("(n << i, true)", ab);
  auto p_big = parse("(m[100,60K] << j, true)", ab);
  AntecedentMonitor small(p_small.antecedent());
  AntecedentMonitor big(p_big.antecedent());
  // The only growth is the counter width: 1 bit -> 16 bits.
  EXPECT_EQ(big.space_bits() - small.space_bits(), 15u);
}

TEST(AntecedentMonitor, PerEventOpsBoundedByMaxFragmentSize) {
  // Drct time complexity is Θ(max_i |α(F_i)|): ops per event must not
  // depend on the range bounds, and must grow only with fragment arity.
  spec::Alphabet ab;
  auto narrow = parse("(n << i, true)", ab);
  auto wide = parse("(m[100,60K] << j, true)", ab);
  AntecedentMonitor m_narrow(narrow.antecedent());
  AntecedentMonitor m_wide(wide.antecedent());

  spec::Trace t_narrow = trace_of("n i n i n i n i", ab);
  run_monitor(m_narrow, t_narrow);
  spec::Trace t_wide;
  for (int round = 0; round < 2; ++round) {
    for (int k = 0; k < 200; ++k) t_wide.push_back({*ab.lookup("m"), {}});
    t_wide.push_back({*ab.lookup("j"), {}});
  }
  run_monitor(m_wide, t_wide);

  EXPECT_LE(m_wide.stats().max_ops_per_event,
            m_narrow.stats().max_ops_per_event + 2)
      << "a huge range must not increase per-event work";
}

TEST(AntecedentMonitor, OpsScaleWithActiveFragmentOnly) {
  spec::Alphabet ab;
  // Fragment arities 4 and 1: per-event work tracks the active fragment.
  auto p = parse("(({a, b, c, d}, &) < e << i, true)", ab);
  AntecedentMonitor m(p.antecedent());
  auto t = trace_of("a b c d e i", ab);
  run_monitor(m, t);
  EXPECT_GT(m.stats().max_ops_per_event, 0u);
  // 4 recognizers, each a handful of ops, plus dispatch: stays small.
  EXPECT_LE(m.stats().max_ops_per_event, 64u);
}

}  // namespace
}  // namespace loom::mon
