// Monitor fork contract: fork_from(live) copies the complete mutable state
// of a live instance into another instance stamped from the same plan, so
// that continuing the copy is indistinguishable from continuing the live
// instance — and from the uninterrupted run, and from a snapshot+restore
// of the same state (verdict, violation report with its text, Figure-6
// stats, deadline and the round counters).  The campaign engine leans on
// this: every invalid mutant replays on a pooled instance forked from the
// valid walk paused at the mutant's divergence position, and that instance
// may hold a violation and range errors from the previous mutant.  Covered
// for forced Drct on the antecedent and timed shapes and for ViaPSL, on
// fuzzed traces and on traces that violate mid-trace, at every cut.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mon/compiled.hpp"
#include "mon/monitors.hpp"
#include "mon/snapshot.hpp"
#include "psl/clause_monitor.hpp"
#include "support/rng.hpp"
#include "testing.hpp"

namespace loom::mon {
namespace {

// Events drawn from `names` at strictly increasing times with jittered
// gaps; deterministic per Rng.
spec::Trace fuzz_trace(const std::vector<spec::Name>& names,
                       support::Rng& rng) {
  spec::Trace t;
  const std::size_t len = rng.below(40);
  sim::Time now;
  for (std::size_t i = 0; i < len; ++i) {
    now += sim::Time::ns(1 + rng.below(2000));
    t.push_back({names[rng.below(names.size())], now});
  }
  return t;
}

std::vector<spec::Name> names_of(const spec::Property& p, spec::Alphabet& ab) {
  std::vector<spec::Name> names;
  p.alphabet().for_each(
      [&](std::size_t n) { names.push_back(static_cast<spec::Name>(n)); });
  names.push_back(ab.name("noise_x"));
  names.push_back(ab.name("noise_y"));
  return names;
}

Snapshot frame_of(const Monitor& m) {
  Snapshot s;
  m.snapshot(s);
  return s;
}

// The kind-specific round counter: validated triggers, completed timed
// rounds or clause-network rounds.
std::uint64_t rounds_of(const Monitor& m) {
  if (const auto* a = dynamic_cast<const AntecedentMonitor*>(&m)) {
    return a->validated_triggers();
  }
  if (const auto* t = dynamic_cast<const TimedImplicationMonitor*>(&m)) {
    return t->completed_rounds();
  }
  return dynamic_cast<const psl::ClauseMonitor&>(m).rounds();
}

void expect_same_outcome(Monitor& got, Monitor& want,
                         const std::string& what) {
  EXPECT_EQ(got.verdict(), want.verdict()) << what;
  ASSERT_EQ(got.violation().has_value(), want.violation().has_value())
      << what;
  if (want.violation()) {
    const Violation& g = *got.violation();
    const Violation& w = *want.violation();
    EXPECT_EQ(g.event_ordinal, w.event_ordinal) << what;
    EXPECT_EQ(g.time, w.time) << what;
    EXPECT_EQ(g.name, w.name) << what;
    EXPECT_EQ(g.reason, w.reason) << what;
    EXPECT_EQ(g.detail, w.detail) << what;
    EXPECT_EQ(g.text(), w.text()) << what;
  }
  EXPECT_EQ(got.stats().ops, want.stats().ops) << what;
  EXPECT_EQ(got.stats().events, want.stats().events) << what;
  EXPECT_EQ(got.stats().max_ops_per_event, want.stats().max_ops_per_event)
      << what;
  EXPECT_EQ(got.deadline(), want.deadline()) << what;
  EXPECT_EQ(rounds_of(got), rounds_of(want)) << what;
}

// A violation left by a recognizer error (a range in the error state, or a
// ViaPSL conjunct or lexer bound), not by a deadline.
bool holds_range_error(const Monitor& m) {
  if (!m.violation()) return false;
  switch (m.violation()->reason.code) {
    case spec::ReasonCode::DeadlineElapsed:
    case spec::ReasonCode::FinishedLateBy:
    case spec::ReasonCode::DeadlineWatchdog:
    case spec::ReasonCode::EndedLate:
      return false;
    default:
      return true;
  }
}

struct Case {
  const char* label;
  const char* source;
};

// The shapes of mon_snapshot_test.
constexpr Case kCases[] = {
    {"antecedent-repeated", "(n << i, true)"},
    {"antecedent-retiring", "(({a, b, c}, &) << s, false)"},
    {"antecedent-ranged",
     "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)"},
    {"timed", "(p[2,3] => q[1,4] < r, 10us)"},
};

struct Tally {
  std::size_t cuts = 0;
  std::size_t violated_cuts = 0;
};

// At every cut of fuzzed and mid-trace-violating traces: a live instance
// walks the trace and pauses at the cut; a dirty instance (holding a
// violation from a recognizer error) forks from it, and a second dirty
// instance restores its snapshot.  Right after, the fork's snapshot equals
// the live one's; both then run the rest of the trace and finish like the
// uninterrupted run.  The live instance itself keeps walking, untouched by
// the forks, and finishes like the uninterrupted run too.
void check_forks(const CompiledProperty& compiled, Backend backend,
                 const spec::Property& p, spec::Alphabet& ab,
                 const std::string& label, Tally& tally) {
  const auto names = names_of(p, ab);
  const auto dirty = compiled.instantiate(backend);
  for (std::uint64_t trial = 0; !holds_range_error(*dirty); ++trial) {
    ASSERT_LT(trial, 200u) << label << ": no range error left behind";
    dirty->reset();
    support::Rng rng = support::Rng::stream(0xD1E7 + trial, 41);
    dirty->observe_batch(fuzz_trace(names, rng));
  }
  const Snapshot dirty_state = frame_of(*dirty);

  const auto forked = compiled.instantiate(backend);
  const auto restored = compiled.instantiate(backend);
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    support::Rng rng = support::Rng::stream(0xF0C4 + trial, 43);
    const spec::Trace traces[] = {
        fuzz_trace(names, rng),
        loom::testing::retiring_trace(p, ab, 0xF0C4 + trial, 20)};
    for (std::size_t ti = 0; ti < 2; ++ti) {
      const spec::Trace& t = traces[ti];
      const sim::Time end = t.empty() ? sim::Time::zero() : t.back().time;
      const auto whole = compiled.instantiate(backend);
      whole->observe_batch(t);
      whole->finish(end);

      const auto live = compiled.instantiate(backend);
      for (std::size_t cut = 0; cut <= t.size(); ++cut) {
        const std::string what = label + " trial " + std::to_string(trial) +
                                 " trace " + std::to_string(ti) + " cut " +
                                 std::to_string(cut) + "/" +
                                 std::to_string(t.size());
        forked->fork_from(*dirty);
        ASSERT_TRUE(holds_range_error(*forked)) << what << " [dirty]";
        forked->fork_from(*live);
        const Snapshot at_cut = frame_of(*live);
        EXPECT_TRUE(loom::testing::snapshots_equal(frame_of(*forked), at_cut))
            << what << " [fork]";
        expect_same_outcome(*forked, *live, what + " [fork]");

        restored->restore(dirty_state);
        restored->restore(at_cut);

        forked->observe_batch(t.data() + cut, t.data() + t.size());
        forked->finish(end);
        restored->observe_batch(t.data() + cut, t.data() + t.size());
        restored->finish(end);
        expect_same_outcome(*forked, *whole, what + " [fork vs whole]");
        expect_same_outcome(*forked, *restored, what + " [fork vs restore]");

        ++tally.cuts;
        if (live->violation()) ++tally.violated_cuts;
        if (cut < t.size()) live->observe(t[cut].name, t[cut].time);
      }
      live->finish(end);
      expect_same_outcome(*live, *whole, label + " [live]");
    }
  }
}

TEST(MonFork, ForcedDrctForksEqualRestoreAndTheUninterruptedRun) {
  Tally tally;
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    CompileOptions opt;
    opt.backend = Backend::Drct;
    const CompiledProperty compiled = CompiledProperty::compile(p, ab, opt);
    check_forks(compiled, Backend::Drct, p, ab, c.label, tally);
  }
  EXPECT_GT(tally.cuts, 4000u);
  EXPECT_GT(tally.violated_cuts, 2000u);
}

TEST(MonFork, ViaPslForksEqualRestoreAndTheUninterruptedRun) {
  Tally tally;
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    CompileOptions opt;
    opt.backend = Backend::ViaPSL;
    const CompiledProperty compiled = CompiledProperty::compile(p, ab, opt);
    check_forks(compiled, Backend::ViaPSL, p, ab, c.label, tally);
  }
  EXPECT_GT(tally.cuts, 4000u);
  EXPECT_GT(tally.violated_cuts, 2000u);
}

TEST(MonFork, AForkCarriesTheClauseTextOfAViaPslViolation) {
  // A conjunct violation's text is rendered from the encoding; the fork
  // copies it as it stands, and a later fork from a clean instance drops
  // it again.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(n << i, true)", ab);
  CompileOptions opt;
  opt.backend = Backend::ViaPSL;
  const CompiledProperty compiled = CompiledProperty::compile(p, ab, opt);
  const auto live = compiled.instantiate();
  live->observe_batch(loom::testing::trace_of("i n", ab));
  ASSERT_TRUE(live->violation().has_value());
  ASSERT_EQ(live->violation()->reason.code, spec::ReasonCode::PslConjunct);
  ASSERT_FALSE(live->violation()->detail.empty());

  const auto forked = compiled.instantiate();
  forked->fork_from(*live);
  expect_same_outcome(*forked, *live, "conjunct");
  const auto clean = compiled.instantiate();
  forked->fork_from(*clean);
  EXPECT_FALSE(forked->violation().has_value());
  expect_same_outcome(*forked, *clean, "clean");
}

TEST(MonFork, ForkRejectsAForeignKindAndAnotherPlan) {
  spec::Alphabet ab;
  const spec::Property ante = loom::testing::parse("(n << i, true)", ab);
  const spec::Property timed =
      loom::testing::parse("(p[2,3] => q[1,4] < r, 10us)", ab);
  CompileOptions opt;
  opt.backend = Backend::Drct;
  opt.with_viapsl_artifact = true;
  const CompiledProperty a = CompiledProperty::compile(ante, ab, opt);
  const CompiledProperty a2 = CompiledProperty::compile(ante, ab, opt);
  const CompiledProperty t = CompiledProperty::compile(timed, ab, opt);
  const CompiledProperty t2 = CompiledProperty::compile(timed, ab, opt);

  struct Pair {
    const char* label;
    std::unique_ptr<Monitor> target;
    std::unique_ptr<Monitor> source;
    const char* diagnostic;  // what the rejection names
  };
  constexpr const char* kKind = "another kind";
  Pair pairs[] = {
      // Foreign kinds, from the same compiled property and across them.
      {"drct <- viapsl", a.instantiate(Backend::Drct),
       a.instantiate(Backend::ViaPSL), kKind},
      {"viapsl <- drct", a.instantiate(Backend::ViaPSL),
       a.instantiate(Backend::Drct), kKind},
      {"antecedent <- timed", a.instantiate(Backend::Drct),
       t.instantiate(Backend::Drct), kKind},
      {"timed <- antecedent", t.instantiate(Backend::Drct),
       a.instantiate(Backend::Drct), kKind},
      // The same kind and property, stamped from another plan.
      {"antecedent <- another plan", a.instantiate(Backend::Drct),
       a2.instantiate(Backend::Drct), "another plan"},
      {"timed <- another plan", t.instantiate(Backend::Drct),
       t2.instantiate(Backend::Drct), "another plan"},
      {"viapsl <- another encoding", a.instantiate(Backend::ViaPSL),
       a2.instantiate(Backend::ViaPSL), "another encoding"},
      {"stand-alone antecedents", make_monitor(ante), make_monitor(ante),
       "another plan"},
  };
  const spec::Trace steps = loom::testing::trace_of("n i n", ab);
  for (auto& pair : pairs) {
    pair.source->observe_batch(steps);
    const Snapshot before = frame_of(*pair.target);
    try {
      pair.target->fork_from(*pair.source);
      ADD_FAILURE() << pair.label << ": the fork was accepted";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(pair.diagnostic),
                std::string::npos)
          << pair.label << ": " << e.what();
    }
    // The check runs before any write: a rejected fork changes nothing.
    EXPECT_TRUE(
        loom::testing::snapshots_equal(frame_of(*pair.target), before))
        << pair.label;
  }
}

}  // namespace
}  // namespace loom::mon
