// Behavioural tests of the ViaPSL clause monitor.
#include <gtest/gtest.h>

#include "psl/clause_monitor.hpp"
#include "testing.hpp"

namespace loom::psl {
namespace {

using loom::testing::as_ref;
using loom::testing::parse;
using loom::testing::run_monitor;
using loom::testing::timed_trace_of;
using loom::testing::trace_of;

struct Case {
  const char* property;
  const char* trace;
  spec::RefVerdict expected;
};

class ViaPslAntecedent : public ::testing::TestWithParam<Case> {};

TEST_P(ViaPslAntecedent, Verdict) {
  spec::Alphabet ab;
  auto p = parse(GetParam().property, ab);
  ClauseMonitor m(encode(p));
  auto t = trace_of(GetParam().trace, ab);
  run_monitor(m, t);
  EXPECT_EQ(as_ref(m.verdict()), GetParam().expected)
      << GetParam().property << " on [" << GetParam().trace << "] -> "
      << mon::to_string(m.verdict())
      << (m.violation() ? "\n  " + m.violation()->to_string(ab) : "");
}

INSTANTIATE_TEST_SUITE_P(
    SingleRange, ViaPslAntecedent,
    ::testing::Values(
        Case{"(n << i, true)", "", spec::RefVerdict::Accepted},
        Case{"(n << i, true)", "n i", spec::RefVerdict::Accepted},
        Case{"(n << i, true)", "n i n i", spec::RefVerdict::Accepted},
        Case{"(n << i, true)", "n", spec::RefVerdict::Pending},
        Case{"(n << i, true)", "i", spec::RefVerdict::Rejected},
        Case{"(n << i, true)", "n i i", spec::RefVerdict::Rejected},
        Case{"(n << i, true)", "n n i", spec::RefVerdict::Rejected},
        Case{"(n << i, false)", "n i n n i", spec::RefVerdict::Accepted},
        Case{"(n << i, false)", "i", spec::RefVerdict::Rejected}));

INSTANTIATE_TEST_SUITE_P(
    Ranges, ViaPslAntecedent,
    ::testing::Values(
        Case{"(n[2,4] << i, true)", "n n i", spec::RefVerdict::Accepted},
        Case{"(n[2,4] << i, true)", "n n n n i", spec::RefVerdict::Accepted},
        Case{"(n[2,4] << i, true)", "n i", spec::RefVerdict::Rejected},
        Case{"(n[2,4] << i, true)", "n n n n n i",
             spec::RefVerdict::Rejected},
        Case{"(n[2,4] << i, true)", "n n n", spec::RefVerdict::Pending}));

INSTANTIATE_TEST_SUITE_P(
    Fragments, ViaPslAntecedent,
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
             "n1 n2 n3 n5 i", spec::RefVerdict::Rejected},
        Case{"(a < b < c << i, true)", "a b c i a b c i",
             spec::RefVerdict::Accepted},
        Case{"(a < b < c << i, true)", "b a c i",
             spec::RefVerdict::Rejected},
        Case{"(a < b < c << i, true)", "a c i",
             spec::RefVerdict::Rejected}));

class ViaPslTimed : public ::testing::TestWithParam<Case> {};

TEST_P(ViaPslTimed, Verdict) {
  spec::Alphabet ab;
  auto p = parse(GetParam().property, ab);
  ClauseMonitor m(encode(p));
  auto t = timed_trace_of(GetParam().trace, ab);
  run_monitor(m, t, t.empty() ? sim::Time::zero()
                              : t.back().time + sim::Time::us(100));
  EXPECT_EQ(as_ref(m.verdict()), GetParam().expected)
      << GetParam().property << " on [" << GetParam().trace << "] -> "
      << mon::to_string(m.verdict())
      << (m.violation() ? "\n  " + m.violation()->to_string(ab) : "");
}

INSTANTIATE_TEST_SUITE_P(
    Timed, ViaPslTimed,
    ::testing::Values(
        Case{"(a => b, 100ns)", "a@10 b@50", spec::RefVerdict::Accepted},
        Case{"(a => b, 100ns)", "a@10 b@111", spec::RefVerdict::Rejected},
        Case{"(a => b, 100ns)", "a@10", spec::RefVerdict::Rejected},
        Case{"(a => b, 100ns)", "a@10 b@20 a@30 b@40",
             spec::RefVerdict::Accepted},
        Case{"(start => read_img[2,5] < set_irq, 1us)",
             "start@10 read_img@20 read_img@30 set_irq@40",
             spec::RefVerdict::Accepted},
        Case{"(start => read_img[2,5] < set_irq, 1us)",
             "start@10 set_irq@20", spec::RefVerdict::Rejected},
        Case{"(start => read_img[2,5] < set_irq, 1us)",
             "start@10 read_img@20 read_img@900 set_irq@1200",
             spec::RefVerdict::Rejected}));

TEST(ViaPslMonitor, RetiresOnFirstValidatedTrigger) {
  spec::Alphabet ab;
  auto p = parse("(n << i, false)", ab);
  ClauseMonitor m(encode(p));
  auto t = trace_of("n i n n n", ab);
  run_monitor(m, t);
  EXPECT_EQ(m.verdict(), mon::Verdict::Holds);
}

TEST(ViaPslMonitor, OpsPerEventTrackFormulaSize) {
  // The whole clause network evaluates on every token: per-event work must
  // grow with the encoding size (this is exactly the paper's point).
  spec::Alphabet ab;
  auto small = parse("(n << i, true)", ab);
  auto wide = parse("(m[2,12] << j, true)", ab);  // width 11
  ClauseMonitor m_small(encode(small));
  ClauseMonitor m_wide(encode(wide));
  run_monitor(m_small, trace_of("n i n i", ab));
  run_monitor(m_wide, trace_of("m m m j m m j", ab));
  EXPECT_GT(m_wide.stats().max_ops_per_event,
            10 * m_small.stats().max_ops_per_event);
}

TEST(ViaPslMonitor, SpaceBitsIncludeClauseRegistersAndLexer) {
  spec::Alphabet ab;
  auto p = parse("(n[2,5] << i, true)", ab);
  Encoding enc = encode(p);
  ClauseMonitor m(enc);
  EXPECT_EQ(m.space_bits(), enc.clause_bits() + 3 + 2 + 1 + 2);
  // lexer: counter (3 bits for v=5) + source register (2 bits for 2
  // sources) + emitted flag; +2 verdict bits.
}

TEST(ViaPslMonitor, ViolationExplainsTheClause) {
  spec::Alphabet ab;
  auto p = parse("(n << i, true)", ab);
  ClauseMonitor m(encode(p));
  run_monitor(m, trace_of("i", ab));
  ASSERT_TRUE(m.violation().has_value());
  EXPECT_NE(m.violation()->text().find("before"), std::string::npos);
  EXPECT_NE(m.violation()->text().find("until!"), std::string::npos);
}

TEST(ViaPslMonitor, WatchdogInterface) {
  spec::Alphabet ab;
  auto p = parse("(a => b, 100ns)", ab);
  ClauseMonitor m(encode(p));
  EXPECT_FALSE(m.deadline().has_value());
  m.observe(*ab.lookup("a"), sim::Time::ns(10));
  ASSERT_TRUE(m.deadline().has_value());
  EXPECT_EQ(*m.deadline(), sim::Time::ns(110));
  m.poll(sim::Time::ns(200));
  EXPECT_EQ(m.verdict(), mon::Verdict::Violated);
}

TEST(ViaPslMonitor, ResetRestoresInitialState) {
  spec::Alphabet ab;
  auto p = parse("(n << i, true)", ab);
  ClauseMonitor m(encode(p));
  run_monitor(m, trace_of("i", ab));
  EXPECT_EQ(m.verdict(), mon::Verdict::Violated);
  m.reset();
  EXPECT_EQ(m.verdict(), mon::Verdict::Monitoring);
  run_monitor(m, trace_of("n i", ab));
  EXPECT_EQ(m.verdict(), mon::Verdict::Monitoring);
}

}  // namespace
}  // namespace loom::psl
