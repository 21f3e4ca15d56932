// Behavioural tests of the ViaPSL clause monitor.
#include <gtest/gtest.h>

#include "psl/clause_monitor.hpp"
#include "support/rng.hpp"
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

TEST(ViaPslMonitor, AViolationNamesTheEventItWasRaisedOn) {
  // Clause-network violations (a PSL conjunct, a consequent finished past
  // its deadline) fire on a PSL token, but report the observed event: for
  // every violation raised inside a random trace, the name is that of the
  // event at its ordinal, and the text renders.  The first property is the
  // witness whose conjunct `(!i until! (a#2 || a#3))` fired on token 4 and
  // reported the noise event z for the trigger i.
  const char* const properties[] = {
      "(({a[2,3], b}, &) < c << i, false)",
      "(({a, b}, &) < c << i, true)",
      "(n[2,4] << i, true)",
      "(p[2,3] => q[1,4] < r, 10us)",
      "(p => q[1,3], 10us)",
      "(a => b[2,4], 100ns)",
  };
  {
    spec::Alphabet ab;
    const auto p = parse(properties[0], ab);
    ClauseMonitor m(encode(p));
    const auto t = timed_trace_of("i@1 z@20001 a@20002", ab);
    for (const auto& ev : t) m.observe(ev.name, ev.time);
    ASSERT_TRUE(m.violation().has_value());
    EXPECT_EQ(m.violation()->event_ordinal, 0u);
    EXPECT_EQ(m.violation()->name, ab.name("i"));
  }
  support::Rng rng = support::Rng::stream(0x9151, 0);
  std::size_t raised = 0;
  for (const char* source : properties) {
    spec::Alphabet ab;
    const auto p = parse(source, ab);
    std::vector<spec::Name> names;
    p.alphabet().for_each(
        [&](std::size_t n) { names.push_back(static_cast<spec::Name>(n)); });
    names.push_back(ab.name("z"));  // noise
    ClauseMonitor m(encode(p));
    for (int draw = 0; draw < 400; ++draw) {
      spec::Trace t;
      std::uint64_t now_ns = 0;
      const std::size_t length = 1 + rng.below(12);
      for (std::size_t k = 0; k < length; ++k) {
        now_ns += 1 + rng.below(rng.chance(1, 4) ? 20000 : 20);
        t.push_back({names[rng.below(names.size())], sim::Time::ns(now_ns)});
      }
      m.reset();
      run_monitor(m, t);
      if (!m.violation() || m.violation()->event_ordinal >= t.size()) {
        continue;
      }
      ++raised;
      const mon::Violation& v = *m.violation();
      EXPECT_EQ(v.name, t[v.event_ordinal].name)
          << source << " violation #" << v.event_ordinal;
      EXPECT_NO_THROW((void)v.to_string(ab)) << source;
    }
  }
  EXPECT_GT(raised, 100u);
}

}  // namespace
}  // namespace loom::psl
