// End-to-end tests of the Drct timed-implication monitor, including the
// in-simulation watchdog binding (MonitorModule).
#include <gtest/gtest.h>

#include "testing.hpp"

namespace loom::mon {
namespace {

using loom::testing::as_ref;
using loom::testing::parse;
using loom::testing::run_monitor;
using loom::testing::timed_trace_of;

struct Case {
  const char* property;
  const char* trace;  // "name@ns" entries
  std::uint64_t end_ns;
  spec::RefVerdict expected;
};

class TimedDrct : public ::testing::TestWithParam<Case> {};

TEST_P(TimedDrct, MatchesExpectedVerdict) {
  spec::Alphabet ab;
  auto p = parse(GetParam().property, ab);
  TimedImplicationMonitor m(p.timed());
  auto t = timed_trace_of(GetParam().trace, ab);
  run_monitor(m, t, sim::Time::ns(GetParam().end_ns));
  EXPECT_EQ(as_ref(m.verdict()), GetParam().expected)
      << GetParam().property << " on [" << GetParam().trace << "] -> "
      << to_string(m.verdict())
      << (m.violation() ? "\n  " + m.violation()->to_string(ab) : "");
}

INSTANTIATE_TEST_SUITE_P(
    Basic, TimedDrct,
    ::testing::Values(
        Case{"(a => b, 100ns)", "a@10 b@50", 200, spec::RefVerdict::Accepted},
        Case{"(a => b, 100ns)", "a@10 b@110", 200,
             spec::RefVerdict::Accepted},
        Case{"(a => b, 100ns)", "a@10 b@111", 200,
             spec::RefVerdict::Rejected},
        Case{"(a => b, 100ns)", "a@10", 300, spec::RefVerdict::Rejected},
        Case{"(a => b, 100ns)", "a@10", 50, spec::RefVerdict::Pending},
        Case{"(a => b, 100ns)", "", 500, spec::RefVerdict::Accepted},
        Case{"(a => b, 100ns)", "a@10 b@20 a@30 b@40", 500,
             spec::RefVerdict::Accepted},
        Case{"(a => b, 100ns)", "a@10 b@20 a@30 b@200", 500,
             spec::RefVerdict::Rejected},
        Case{"(a => b, 100ns)", "b@10", 100, spec::RefVerdict::Rejected}));

INSTANTIATE_TEST_SUITE_P(
    Example3Shape, TimedDrct,
    ::testing::Values(
        Case{"(start => read_img[2,5] < set_irq, 1us)",
             "start@10 read_img@20 read_img@30 set_irq@40", 2000,
             spec::RefVerdict::Accepted},
        Case{"(start => read_img[2,5] < set_irq, 1us)",
             "start@10 read_img@20 set_irq@30", 2000,
             spec::RefVerdict::Rejected},
        Case{"(start => read_img[2,5] < set_irq, 1us)",
             "start@10 read_img@20 read_img@900 set_irq@1200", 2000,
             spec::RefVerdict::Rejected},
        Case{"(start => read_img[2,5] < set_irq, 1us)",
             "start@10 read_img@20 read_img@30 set_irq@40 start@50 "
             "read_img@60 read_img@70 set_irq@80",
             2000, spec::RefVerdict::Accepted},
        Case{"(start => read_img[2,5] < set_irq, 1us)",
             "start@10 set_irq@20", 2000, spec::RefVerdict::Rejected}));

INSTANTIATE_TEST_SUITE_P(
    MinComplete, TimedDrct,
    ::testing::Values(
        Case{"(a => b[2,4], 100ns)", "a@10 b@20 b@30", 500,
             spec::RefVerdict::Accepted},
        Case{"(a => b[2,4], 100ns)", "a@10 b@20 b@30 b@40 b@50", 500,
             spec::RefVerdict::Accepted},
        Case{"(a => b[2,4], 100ns)", "a@10 b@20", 500,
             spec::RefVerdict::Rejected},
        Case{"(a => b[2,4], 100ns)", "a@10 b@20 b@30 b@40 b@50 b@60", 500,
             spec::RefVerdict::Rejected},
        Case{"(a => b[2,4], 100ns)", "a@10 b@20 b@30 a@40 b@50 b@60", 500,
             spec::RefVerdict::Accepted},
        Case{"(p[2,3] => q, 100ns)", "p@10 p@50 q@140", 500,
             spec::RefVerdict::Accepted},
        Case{"(p[2,3] => q, 100ns)", "p@10 p@50 p@60 q@160", 500,
             spec::RefVerdict::Rejected}));

TEST(TimedMonitor, RoundsAreCounted) {
  spec::Alphabet ab;
  auto p = parse("(a => b, 100ns)", ab);
  TimedImplicationMonitor m(p.timed());
  auto t = timed_trace_of("a@10 b@20 a@30 b@40 a@50 b@60", ab);
  run_monitor(m, t, sim::Time::ns(500));
  // Rounds complete at the *restart* events (reset point is the end of Q):
  // two restarts happened (a@30, a@50); the last round is min-complete.
  EXPECT_EQ(m.completed_rounds(), 2u);
  EXPECT_EQ(m.verdict(), Verdict::Monitoring);
}

TEST(TimedMonitor, DeadlineExposedWhileArmed) {
  spec::Alphabet ab;
  auto p = parse("(a => b, 100ns)", ab);
  TimedImplicationMonitor m(p.timed());
  EXPECT_FALSE(m.deadline().has_value());
  m.observe(*ab.lookup("a"), sim::Time::ns(10));
  ASSERT_TRUE(m.deadline().has_value());
  EXPECT_EQ(*m.deadline(), sim::Time::ns(110));
  m.observe(*ab.lookup("b"), sim::Time::ns(50));
  EXPECT_FALSE(m.deadline().has_value());
}

TEST(TimedMonitor, PollDetectsOverdueObligation) {
  spec::Alphabet ab;
  auto p = parse("(a => b, 100ns)", ab);
  TimedImplicationMonitor m(p.timed());
  m.observe(*ab.lookup("a"), sim::Time::ns(10));
  m.poll(sim::Time::ns(110));
  EXPECT_EQ(m.verdict(), Verdict::Pending) << "deadline not yet passed";
  m.poll(sim::Time::ns(111));
  EXPECT_EQ(m.verdict(), Verdict::Violated);
  EXPECT_NE(m.violation()->text().find("watchdog"), std::string::npos);
}

TEST(TimedMonitor, SpaceIncludesTheTwoTimeVariables) {
  spec::Alphabet ab;
  auto p = parse("(a => b, 100ns)", ab);
  TimedImplicationMonitor m(p.timed());
  EXPECT_GE(m.space_bits(), 2u * 64u);
}

TEST(TimedMonitor, HugeRangeDoesNotIncreasePerEventWork) {
  spec::Alphabet ab;
  auto small = parse("(a => b < c, 10us)", ab);
  auto huge = parse("(d => e[100,60K] < f, 10us)", ab);
  TimedImplicationMonitor m_small(small.timed());
  TimedImplicationMonitor m_huge(huge.timed());

  auto t_small = timed_trace_of("a@10 b@20 c@30 a@40 b@50 c@60", ab);
  run_monitor(m_small, t_small, sim::Time::us(1));

  spec::Trace t_huge;
  std::uint64_t ns = 10;
  t_huge.push_back({*ab.lookup("d"), sim::Time::ns(ns)});
  for (int k = 0; k < 150; ++k) {
    t_huge.push_back({*ab.lookup("e"), sim::Time::ns(ns += 10)});
  }
  t_huge.push_back({*ab.lookup("f"), sim::Time::ns(ns += 10)});
  run_monitor(m_huge, t_huge, sim::Time::us(9));

  EXPECT_EQ(m_huge.verdict(), Verdict::Monitoring);
  EXPECT_LE(m_huge.stats().max_ops_per_event,
            m_small.stats().max_ops_per_event + 4);
}

TEST(MonitorModule, WatchdogFiresAtDeadlineInSimulation) {
  sim::Scheduler sched;
  spec::Alphabet ab;
  auto p = parse("(a => b, 100ns)", ab);
  TimedImplicationMonitor m(p.timed());
  MonitorModule mod(sched, "monitor", m, ab);
  std::vector<std::string> reported;
  mod.on_violation(
      [&](const Violation& v) { reported.push_back(v.to_string(ab)); });

  struct Driver {
    static sim::Process run(sim::Scheduler& s, MonitorModule& mod,
                            spec::Name a) {
      co_await s.wait(sim::Time::ns(10));
      mod.observe(a);  // P observed; Q never follows
      co_await s.wait(sim::Time::ns(1000));
    }
  };
  sched.spawn(Driver::run(sched, mod, *ab.lookup("a")), "driver");
  sched.run();

  EXPECT_EQ(m.verdict(), Verdict::Violated);
  ASSERT_EQ(reported.size(), 1u);
  // Reported right after the deadline (110 ns), not at the end (1010 ns).
  EXPECT_EQ(m.violation()->time, sim::Time::ns(110) + sim::Time::ps(1));
}

TEST(MonitorModule, NoWatchdogFalsePositiveWhenQCompletes) {
  sim::Scheduler sched;
  spec::Alphabet ab;
  auto p = parse("(a => b, 100ns)", ab);
  TimedImplicationMonitor m(p.timed());
  MonitorModule mod(sched, "monitor", m, ab);
  int violations = 0;
  mod.on_violation([&](const Violation&) { ++violations; });

  struct Driver {
    static sim::Process run(sim::Scheduler& s, MonitorModule& mod,
                            spec::Name a, spec::Name b) {
      co_await s.wait(sim::Time::ns(10));
      mod.observe(a);
      co_await s.wait(sim::Time::ns(50));
      mod.observe(b);  // within the deadline
      co_await s.wait(sim::Time::ns(500));
    }
  };
  sched.spawn(Driver::run(sched, mod, *ab.lookup("a"), *ab.lookup("b")),
              "driver");
  sched.run();

  EXPECT_EQ(violations, 0);
  EXPECT_NE(m.verdict(), Verdict::Violated);
}

TEST(MonitorModule, AntecedentViolationReportedOnce) {
  sim::Scheduler sched;
  spec::Alphabet ab;
  auto p = parse("(n << i, true)", ab);
  AntecedentMonitor m(p.antecedent());
  MonitorModule mod(sched, "monitor", m, ab);
  int violations = 0;
  mod.on_violation([&](const Violation&) { ++violations; });
  struct Driver {
    static sim::Process run(sim::Scheduler& s, MonitorModule& mod,
                            spec::Name i) {
      co_await s.wait(sim::Time::ns(5));
      mod.observe(i);  // violation: trigger before P
      co_await s.wait(sim::Time::ns(5));
      mod.observe(i);  // already violated; must not re-report
    }
  };
  sched.spawn(Driver::run(sched, mod, *ab.lookup("i")), "driver");
  sched.run();
  EXPECT_EQ(violations, 1);
}

}  // namespace
}  // namespace loom::mon
