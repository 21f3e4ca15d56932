// MonitorModule::observe_batch contract: same verdict as the per-event
// observe() path, violation callback exactly once, and the documented
// early-stop on a violating slice.  Plus the Drct monitors' own
// observe_batch retirement fast-forward, locked against the event loop.
#include <gtest/gtest.h>

#include <string>

#include "mon/monitors.hpp"
#include "mon/snapshot.hpp"
#include "support/rng.hpp"
#include "testing.hpp"

namespace loom::mon {
namespace {

struct PathResult {
  Verdict verdict = Verdict::Monitoring;
  int callbacks = 0;
  std::uint64_t monitor_events = 0;
};

PathResult run_per_event(const spec::Property& p, const spec::Alphabet& ab,
                         const spec::Trace& trace) {
  sim::Scheduler scheduler;
  auto monitor = make_monitor(p);
  MonitorModule module(scheduler, "per_event", *monitor, ab);
  PathResult out;
  module.on_violation([&out](const Violation&) { ++out.callbacks; });
  for (const auto& ev : trace) module.observe(ev.name, ev.time);
  out.verdict = monitor->verdict();
  out.monitor_events = monitor->stats().events;
  return out;
}

PathResult run_batch(const spec::Property& p, const spec::Alphabet& ab,
                     const spec::Trace& trace) {
  sim::Scheduler scheduler;
  auto monitor = make_monitor(p);
  MonitorModule module(scheduler, "batch", *monitor, ab);
  PathResult out;
  module.on_violation([&out](const Violation&) { ++out.callbacks; });
  module.observe_batch(trace);
  out.verdict = monitor->verdict();
  out.monitor_events = monitor->stats().events;
  return out;
}

TEST(MonitorModuleBatch, AgreesWithPerEventPathOnValidTrace) {
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  const spec::Trace trace = loom::testing::trace_of("a b s b a s", ab);
  ASSERT_FALSE(spec::reference_check(p, trace, trace.back().time).rejected());

  const PathResult per_event = run_per_event(p, ab, trace);
  const PathResult batch = run_batch(p, ab, trace);
  EXPECT_EQ(per_event.verdict, batch.verdict);
  EXPECT_NE(batch.verdict, Verdict::Violated);
  EXPECT_EQ(per_event.callbacks, 0);
  EXPECT_EQ(batch.callbacks, 0);
  // No violation → no early stop: both paths step every event.
  EXPECT_EQ(per_event.monitor_events, batch.monitor_events);
}

TEST(MonitorModuleBatch, ViolatingSliceFiresCallbackExactlyOnce) {
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  // Trigger fires before b completes the fragment: an invalid trace.
  const spec::Trace trace = loom::testing::trace_of("a s", ab);
  ASSERT_TRUE(spec::reference_check(p, trace, trace.back().time).rejected());

  const PathResult per_event = run_per_event(p, ab, trace);
  const PathResult batch = run_batch(p, ab, trace);
  EXPECT_EQ(per_event.verdict, Verdict::Violated);
  EXPECT_EQ(batch.verdict, Verdict::Violated);
  EXPECT_EQ(per_event.callbacks, 1);
  EXPECT_EQ(batch.callbacks, 1);
}

TEST(MonitorModuleBatch, StopsSteppingAtTheViolation) {
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  // Violation at the second event, then a long valid-looking tail: the
  // batch path must not keep feeding the dead monitor (documented early
  // stop — its stats cover only events up to the violation).
  const spec::Trace trace =
      loom::testing::trace_of("a s a b s a b s a b s", ab);

  const PathResult per_event = run_per_event(p, ab, trace);
  const PathResult batch = run_batch(p, ab, trace);
  EXPECT_EQ(per_event.verdict, batch.verdict);
  EXPECT_EQ(batch.verdict, Verdict::Violated);
  EXPECT_EQ(batch.callbacks, 1);
  EXPECT_EQ(batch.monitor_events, 2u);
  EXPECT_EQ(per_event.monitor_events, trace.size());
}

TEST(MonitorModuleBatch, ReplayAllMatchesPerEventStatsExactly) {
  // The campaign's replay policy: every event stepped even past the
  // violation, so verdict AND stats land bit-identical to an observe()
  // loop — the equivalence the cached-replay differential tests build on.
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  const spec::Trace traces[] = {
      loom::testing::trace_of("a b s b a s", ab),        // valid
      loom::testing::trace_of("a s a b s a b s a b s", ab),  // violating
  };
  for (const auto& trace : traces) {
    const PathResult per_event = run_per_event(p, ab, trace);

    sim::Scheduler scheduler;
    auto monitor = make_monitor(p);
    MonitorModule module(scheduler, "replay_all", *monitor, ab);
    int callbacks = 0;
    module.on_violation([&callbacks](const Violation&) { ++callbacks; });
    module.observe_batch(trace, MonitorModule::BatchPolicy::ReplayAll);

    EXPECT_EQ(monitor->verdict(), per_event.verdict);
    EXPECT_EQ(callbacks, per_event.callbacks);
    EXPECT_EQ(monitor->stats().events, per_event.monitor_events);
    EXPECT_EQ(monitor->stats().events, trace.size());
  }
}

TEST(MonitorModuleBatch, MonitorLevelBatchIsObservationallyPerEvent) {
  // Monitor::observe_batch (the devirtualized override every monitor kind
  // carries) must be indistinguishable from an observe() loop, ops
  // accounting included.
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

TEST(MonitorBatchRetire, RetiringMidSliceEqualsTheEventLoop) {
  // Once a Drct monitor retires (Violated, or Holds for a non-repeated
  // antecedent) its observe_batch counts the rest of the slice in one step
  // instead of stepping it.  Every slice here retires part-way, whole or
  // cut at random points; each must land on the event loop's bytes.
  constexpr const char* kSources[] = {
      "(n << i, true)",
      "(n[2,3] << i, false)",
      "(({a, b, c}, &) << s, false)",
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
      "(p[2,3] => q[1,4] < r, 10us)",
  };
  std::size_t violated_mid = 0, holds_mid = 0;
  for (const char* source : kSources) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(source, ab);
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      const spec::Trace trace = loom::testing::retiring_trace(p, ab, seed, 80);
      auto looped = make_monitor(p);
      std::size_t retired_at = trace.size();
      for (std::size_t i = 0; i < trace.size(); ++i) {
        looped->observe(trace[i].name, trace[i].time);
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
      whole->observe_batch(trace);
      expect_same_state(*whole, *looped, what + " [whole slice]");

      auto cut = make_monitor(p);
      support::Rng rng = support::Rng::stream(seed, 9);
      std::size_t done = 0;
      while (done < trace.size()) {
        const std::size_t next = done + 1 + rng.below(trace.size() - done);
        cut->observe_batch(trace.data() + done, trace.data() + next);
        done = next;
      }
      expect_same_state(*cut, *looped, what + " [random cuts]");
    }
  }
  EXPECT_GT(violated_mid, 50u);
  EXPECT_GT(holds_mid, 10u);
}

}  // namespace
}  // namespace loom::mon
