// The Monitor batch contract: observe_batch, and observe_shifted at any
// shift, land on the bytes of an observe(name, time + shift) loop — the
// monitors' retirement fast-forward included, the ViaPSL clause network's
// loop too, and a shift that saturates at sim::Time::max() part-way
// through a slice.  Plus the in-simulation host against that batch path:
// a MonitorModule fed event by event reaches the same verdict and stats,
// and fires its violation callback exactly once.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mon/monitor_module.hpp"
#include "mon/monitors.hpp"
#include "mon/snapshot.hpp"
#include "psl/clause_monitor.hpp"
#include "psl/translate.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"
#include "testing.hpp"

namespace loom::mon {
namespace {

// --- MonitorModule per-event path vs Monitor::observe_batch ----------------

struct PathResult {
  Verdict verdict = Verdict::Monitoring;
  int callbacks = 0;
  MonitorStats stats;
};

// The trace fed through a MonitorModule one observe() at a time.
PathResult run_module(const spec::Property& p, const spec::Alphabet& ab,
                      const spec::Trace& trace) {
  sim::Scheduler scheduler;
  auto monitor = make_monitor(p);
  MonitorModule module(scheduler, "per_event", *monitor, ab);
  PathResult out;
  module.on_violation([&out](const Violation&) { ++out.callbacks; });
  for (const auto& ev : trace) module.observe(ev.name, ev.time);
  out.verdict = monitor->verdict();
  out.stats = monitor->stats();
  return out;
}

// The trace as one Monitor::observe_batch slice, the campaign's replay path.
PathResult run_batch(const spec::Property& p, const spec::Trace& trace) {
  auto monitor = make_monitor(p);
  monitor->observe_batch(trace);
  PathResult out;
  out.verdict = monitor->verdict();
  out.stats = monitor->stats();
  return out;
}

TEST(MonitorModuleBatch, AgreesWithPerEventPathOnValidTrace) {
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  const spec::Trace trace = loom::testing::trace_of("a b s b a s", ab);
  ASSERT_FALSE(spec::reference_check(p, trace, trace.back().time).rejected());

  const PathResult per_event = run_module(p, ab, trace);
  const PathResult batch = run_batch(p, trace);
  EXPECT_EQ(per_event.verdict, batch.verdict);
  EXPECT_NE(batch.verdict, Verdict::Violated);
  EXPECT_EQ(per_event.callbacks, 0);
  EXPECT_EQ(per_event.stats.events, trace.size());
  EXPECT_EQ(batch.stats.events, trace.size());
  EXPECT_EQ(per_event.stats.ops, batch.stats.ops);
}

TEST(MonitorModuleBatch, ViolatingSliceFiresCallbackExactlyOnce) {
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  // Trigger fires before b completes the fragment: an invalid trace.
  const spec::Trace trace = loom::testing::trace_of("a s", ab);
  ASSERT_TRUE(spec::reference_check(p, trace, trace.back().time).rejected());

  const PathResult batch = run_batch(p, trace);
  EXPECT_EQ(batch.verdict, Verdict::Violated);

  // The host reports the violation once, however many events follow it.
  sim::Scheduler scheduler;
  auto monitor = make_monitor(p);
  MonitorModule module(scheduler, "per_event", *monitor, ab);
  int callbacks = 0;
  module.on_violation([&callbacks](const Violation&) { ++callbacks; });
  for (const auto& ev : trace) module.observe(ev.name, ev.time);
  EXPECT_EQ(monitor->verdict(), Verdict::Violated);
  EXPECT_EQ(callbacks, 1);
  const spec::Trace tail = loom::testing::trace_of("a b s a s", ab);
  for (const auto& ev : tail) {
    module.observe(ev.name, trace.back().time + ev.time);
  }
  EXPECT_EQ(callbacks, 1);
}

TEST(MonitorModuleBatch, StopsSteppingAtTheViolation) {
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  // Violation at the second event, then a long valid-looking tail: the
  // batch path counts the tail's events without stepping the dead monitor
  // (its ops stop at the violation), and the host's per-event path lands
  // on the same stats.
  const spec::Trace trace =
      loom::testing::trace_of("a s a b s a b s a b s", ab);
  const spec::Trace head(trace.begin(), trace.begin() + 2);

  const PathResult at_violation = run_batch(p, head);
  ASSERT_EQ(at_violation.verdict, Verdict::Violated);
  const PathResult batch = run_batch(p, trace);
  const PathResult per_event = run_module(p, ab, trace);
  EXPECT_EQ(batch.verdict, Verdict::Violated);
  EXPECT_EQ(per_event.verdict, Verdict::Violated);
  EXPECT_EQ(per_event.callbacks, 1);
  EXPECT_EQ(batch.stats.events, trace.size());
  EXPECT_EQ(batch.stats.ops, at_violation.stats.ops);
  EXPECT_EQ(per_event.stats.events, batch.stats.events);
  EXPECT_EQ(per_event.stats.ops, batch.stats.ops);
}

TEST(MonitorModuleBatch, ReplayAllMatchesPerEventStatsExactly) {
  // The campaign replays through Monitor::observe_batch: every event
  // counted even past the violation, so verdict AND stats land
  // bit-identical to the host's observe() loop — the equivalence the
  // cached-replay differential tests build on.
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  const spec::Trace traces[] = {
      loom::testing::trace_of("a b s b a s", ab),            // valid
      loom::testing::trace_of("a s a b s a b s a b s", ab),  // violating
  };
  for (const auto& trace : traces) {
    const PathResult per_event = run_module(p, ab, trace);
    const PathResult batch = run_batch(p, trace);
    EXPECT_EQ(batch.verdict, per_event.verdict);
    EXPECT_EQ(batch.stats.events, per_event.stats.events);
    EXPECT_EQ(batch.stats.events, trace.size());
    EXPECT_EQ(batch.stats.ops, per_event.stats.ops);
    EXPECT_EQ(batch.stats.max_ops_per_event,
              per_event.stats.max_ops_per_event);
  }
}

TEST(MonitorModuleBatch, MonitorLevelBatchIsObservationallyPerEvent) {
  // Monitor::observe_batch (observe_shifted at shift 0, which every monitor
  // kind implements without per-event dispatch) must be indistinguishable
  // from an observe() loop, ops accounting included.
  spec::Alphabet ab;
  auto p = loom::testing::parse("(p[2,3] => q[1,4] < r, 10us)", ab);
  const spec::Trace trace = loom::testing::trace_of("p p q q r p p q r", ab);

  auto looped = make_monitor(p);
  for (const auto& ev : trace) looped->observe(ev.name, ev.time);
  auto batched = make_monitor(p);
  batched->observe_batch(trace);

  EXPECT_EQ(batched->verdict(), looped->verdict());
  EXPECT_EQ(batched->stats().events, looped->stats().events);
  EXPECT_EQ(batched->stats().ops, looped->stats().ops);
  EXPECT_EQ(batched->stats().max_ops_per_event,
            looped->stats().max_ops_per_event);
}

// --- Monitor::observe_batch / observe_shifted vs the event loop ------------

bool retired(Verdict v) {
  return v == Verdict::Violated || v == Verdict::Holds;
}

void expect_same_state(Monitor& batched, Monitor& looped,
                       const std::string& what) {
  EXPECT_EQ(batched.verdict(), looped.verdict()) << what;
  ASSERT_EQ(batched.violation().has_value(), looped.violation().has_value())
      << what;
  if (batched.violation()) {
    EXPECT_EQ(batched.violation()->event_ordinal,
              looped.violation()->event_ordinal)
        << what;
    EXPECT_EQ(batched.violation()->time, looped.violation()->time) << what;
    EXPECT_EQ(batched.violation()->name, looped.violation()->name) << what;
    EXPECT_EQ(batched.violation()->reason, looped.violation()->reason)
        << what;
    EXPECT_EQ(batched.violation()->text(), looped.violation()->text()) << what;
  }
  EXPECT_EQ(batched.stats().events, looped.stats().events) << what;
  EXPECT_EQ(batched.stats().ops, looped.stats().ops) << what;
  EXPECT_EQ(batched.stats().max_ops_per_event,
            looped.stats().max_ops_per_event)
      << what;
  // The event ordinal has no accessor: it rides in the snapshot.
  Snapshot a, b;
  batched.snapshot(a);
  looped.snapshot(b);
  EXPECT_TRUE(loom::testing::snapshots_equal(a, b)) << what;
}

class MonitorBatchRetire : public ::testing::TestWithParam<sim::Time> {};

TEST_P(MonitorBatchRetire, RetiringMidSliceEqualsTheEventLoop) {
  // Once a Drct monitor retires (Violated, or Holds for a non-repeated
  // antecedent) its observe_shifted counts the rest of the slice in one
  // step instead of stepping it.  Every slice here retires part-way, whole
  // or cut at random points, at the parameter's shift; each must land on
  // the bytes of the event loop at the shifted times.
  constexpr const char* kSources[] = {
      "(n << i, true)",
      "(n[2,3] << i, false)",
      "(({a, b, c}, &) << s, false)",
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
      "(p[2,3] => q[1,4] < r, 10us)",
  };
  const sim::Time shift = GetParam();
  std::size_t violated_mid = 0, holds_mid = 0;
  for (const char* source : kSources) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(source, ab);
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      const spec::Trace trace = loom::testing::retiring_trace(p, ab, seed, 80);
      auto looped = make_monitor(p);
      std::size_t retired_at = trace.size();
      for (std::size_t i = 0; i < trace.size(); ++i) {
        looped->observe(trace[i].name, trace[i].time + shift);
        if (retired_at == trace.size() && retired(looped->verdict())) {
          retired_at = i;
        }
      }
      if (retired_at + 1 < trace.size()) {
        ++(looped->verdict() == Verdict::Holds ? holds_mid : violated_mid);
      }
      const std::string what =
          std::string(source) + " seed " + std::to_string(seed);

      auto whole = make_monitor(p);
      whole->observe_shifted(trace.data(), trace.data() + trace.size(), shift);
      expect_same_state(*whole, *looped, what + " [whole slice]");

      auto cut = make_monitor(p);
      support::Rng rng = support::Rng::stream(seed, 9);
      std::size_t done = 0;
      while (done < trace.size()) {
        const std::size_t next = done + 1 + rng.below(trace.size() - done);
        cut->observe_shifted(trace.data() + done, trace.data() + next, shift);
        done = next;
      }
      expect_same_state(*cut, *looped, what + " [random cuts]");
    }
  }
  EXPECT_GT(violated_mid, 50u);
  EXPECT_GT(holds_mid, 10u);
}

// Shift 0 is observe_batch; 7 ns re-times every event; the last shift
// saturates part-way through each slice (its retiring tails span about
// 80 us), so the later events all land on sim::Time::max().
std::string shift_name(const ::testing::TestParamInfo<sim::Time>& info) {
  constexpr const char* kNames[] = {"Zero", "Nanoseconds", "SaturatingAtMax"};
  return kNames[info.index];
}

INSTANTIATE_TEST_SUITE_P(Shifts, MonitorBatchRetire,
                         ::testing::Values(sim::Time::zero(), sim::Time::ns(7),
                                           sim::Time::max() -
                                               sim::Time::us(40)),
                         shift_name);

class MonitorBatchViaPsl : public ::testing::TestWithParam<sim::Time> {};

TEST_P(MonitorBatchViaPsl, ShiftedSlicesEqualTheEventLoop) {
  // psl::ClauseMonitor implements observe_shifted as its own devirtualized
  // loop: whole or cut at random points, a shifted slice must land on the
  // bytes of the per-event loop at the shifted times.
  constexpr const char* kSources[] = {
      "(n << i, true)",
      "(({a, b, c}, &) << s, false)",
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
      "(p[2,3] => q[1,4] < r, 10us)",
  };
  const sim::Time shift = GetParam();
  for (const char* source : kSources) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(source, ab);
    const auto encoding =
        std::make_shared<const psl::Encoding>(psl::encode(p, 2000000, &ab));
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const spec::Trace trace =
          loom::testing::retiring_trace(p, ab, 0x7A51 + seed, 60);
      const std::string what =
          std::string(source) + " seed " + std::to_string(seed);
      psl::ClauseMonitor looped(encoding);
      for (const auto& ev : trace) looped.observe(ev.name, ev.time + shift);

      psl::ClauseMonitor whole(encoding);
      whole.observe_shifted(trace.data(), trace.data() + trace.size(), shift);
      expect_same_state(whole, looped, what + " [whole slice]");

      psl::ClauseMonitor cut(encoding);
      support::Rng rng = support::Rng::stream(seed, 41);
      std::size_t done = 0;
      while (done < trace.size()) {
        const std::size_t next = done + 1 + rng.below(trace.size() - done);
        cut.observe_shifted(trace.data() + done, trace.data() + next, shift);
        done = next;
      }
      expect_same_state(cut, looped, what + " [random cuts]");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, MonitorBatchViaPsl,
                         ::testing::Values(sim::Time::zero(), sim::Time::ns(7),
                                           sim::Time::max() -
                                               sim::Time::us(40)),
                         shift_name);

}  // namespace
}  // namespace loom::mon
