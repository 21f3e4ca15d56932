// Failure reasons are recorded as codes (spec/reason.hpp) and rendered on
// demand; these witnesses pin the rendered text of every code, byte for
// byte, to the checkers' established diagnostics — for the reference
// oracle, Drct and ViaPSL, and through Violation::to_string.  A monitor's
// text must also survive a snapshot round trip, since restoring reads the
// operands back out of the snapshot's code words (and ViaPSL re-renders its
// conjunct text).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "mon/compiled.hpp"
#include "mon/snapshot.hpp"
#include "spec/reason.hpp"
#include "testing.hpp"

namespace loom {
namespace {

using spec::Reason;
using spec::ReasonCode;

constexpr const char* kConj = "(({a, b}, &) < c << i, true)";
constexpr const char* kRanged = "(({a[2,3], b}, &) < c << i, false)";
constexpr const char* kTimed = "(p[2,3] => q[1,4] < r, 10us)";

struct Rendering {
  Reason reason;
  const char* text;
};

// One value per code, with the sentence it printed.
const Rendering kRenderings[] = {
    {{ReasonCode::None}, ""},
    {{ReasonCode::BlockBelowLo, {1, 2}},
     "block ended after 1 occurrences, below u=2"},
    {{ReasonCode::BlockReopened}, "range block reopened after it ended"},
    {{ReasonCode::RunOverHi, {1}},
     "more than v=1 consecutive occurrences of the range name"},
    {{ReasonCode::StopBlockBelowLo, {1, 2}},
     "fragment stopped while a block had only 1 occurrences, below u=2"},
    {{ReasonCode::ConjIncomplete},
     "conjunctive fragment stopped before all its ranges were observed"},
    {{ReasonCode::DisjIncomplete},
     "disjunctive fragment stopped before any of its ranges was observed"},
    {{ReasonCode::EarlyTrigger},
     "trigger observed before the pattern was recognized"},
    {{ReasonCode::CompletedFragment},
     "name belongs to an already-completed fragment"},
    {{ReasonCode::LaterFragment}, "name belongs to a later fragment"},
    {{ReasonCode::OutsideAlphabet}, "name not in the property alphabet"},
    {{ReasonCode::FinishedLate}, "consequent finished after the deadline"},
    {{ReasonCode::NeverStarted},
     "fragment stopped before any of its ranges started"},
    {{ReasonCode::OutsideFragment},
     "name from outside the active fragment (B or Af)"},
    {{ReasonCode::ConjUnobserved},
     "conjunctive fragment stopped before one of its ranges was observed"},
    {{ReasonCode::CountOverHi, {4294967295u}},
     "more than v=4294967295 consecutive occurrences"},
    {{ReasonCode::StopBelowLo, {1, 2}},
     "fragment stopped after 1 occurrences, below u=2"},
    {{ReasonCode::DeadlineElapsed},
     "deadline elapsed before the consequent finished"},
    {{ReasonCode::DeadlineWatchdog},
     "deadline elapsed before the consequent finished (watchdog)"},
    {{ReasonCode::EndedLate},
     "observation ended after the deadline with the consequent unfinished"},
    {{ReasonCode::FinishedLateBy,
      {},
      {sim::Time::ns(19990), sim::Time::us(10)}},
     "consequent finished after the deadline (took 19990 ns, bound 10 us)"},
    {{ReasonCode::LexerOverHi, {1, 1}}, "lexer: block of '1' exceeds v=1"},
    {{ReasonCode::LexerBelowLo, {0, 1, 2}},
     "lexer: block of '0' ended after 1 occurrences, below u=2"},
    {{ReasonCode::PslConjunct, {3}}, "PSL conjunct violated"},
};

TEST(ReasonText, EveryCodeRendersItsSentence) {
  std::set<int> codes;
  for (const auto& r : kRenderings) {
    EXPECT_EQ(r.reason.text(), r.text) << static_cast<int>(r.reason.code);
    codes.insert(static_cast<int>(r.reason.code));
  }
  // Every code up to the last one has a rendering above.
  EXPECT_EQ(codes.size(),
            static_cast<std::size_t>(ReasonCode::PslConjunct) + 1);
}

TEST(ReasonText, SnapshotWordsCarryEveryOperand) {
  for (const auto& r : kRenderings) {
    mon::Snapshot snap;
    snap.put_reason(r.reason);
    EXPECT_EQ(snap.word_count(), 4u);
    mon::SnapshotReader in(snap);
    EXPECT_EQ(in.reason(), r.reason);
    EXPECT_TRUE(in.exhausted());
  }
  const Reason wide{ReasonCode::LexerBelowLo,
                    {4294967295u, 4294967294u, 4294967293u},
                    {sim::Time::max(), sim::Time::ps(1)}};
  mon::Snapshot snap;
  snap.put_reason(wide);
  mon::SnapshotReader in(snap);
  EXPECT_EQ(in.reason(), wide);
}

struct OracleWitness {
  ReasonCode code;
  const char* property;
  const char* trace;  // "name@ns ..."
  std::uint64_t end_ns;
  std::size_t error_index;
  const char* text;
};

const OracleWitness kOracle[] = {
    {ReasonCode::RunOverHi, kConj, "b@10 b@20", 20, 1,
     "more than v=1 consecutive occurrences of the range name"},
    {ReasonCode::BlockBelowLo, kRanged, "a@10 b@20", 20, 1,
     "block ended after 1 occurrences, below u=2"},
    {ReasonCode::BlockReopened, kConj, "b@10 a@20 b@30", 30, 2,
     "range block reopened after it ended"},
    {ReasonCode::StopBlockBelowLo, kRanged, "a@10 c@20", 20, 1,
     "fragment stopped while a block had only 1 occurrences, below u=2"},
    {ReasonCode::ConjIncomplete, kConj, "c@10", 10, 0,
     "conjunctive fragment stopped before all its ranges were observed"},
    {ReasonCode::DisjIncomplete, "(({a, b}, |) < c << i, false)", "c@10", 10,
     0, "disjunctive fragment stopped before any of its ranges was observed"},
    {ReasonCode::EarlyTrigger, kConj, "i@10", 10, 0,
     "trigger observed before the pattern was recognized"},
    {ReasonCode::CompletedFragment, kConj, "b@10 a@20 c@30 b@40", 40, 3,
     "name belongs to an already-completed fragment"},
    {ReasonCode::LaterFragment, "(a[1,2] < b < c << i, false)", "c@10", 10, 0,
     "name belongs to a later fragment"},
    {ReasonCode::EndedLate, kTimed, "p@10 p@20", 20000, 1,
     "observation ended after the deadline with the consequent unfinished"},
    {ReasonCode::DeadlineElapsed, kTimed, "p@10 p@20 q@20000", 20000, 2,
     "deadline elapsed before the consequent finished"},
};

TEST(ReasonText, OracleWitnesses) {
  for (const auto& w : kOracle) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(w.property, ab);
    const spec::RefResult r = spec::reference_check(
        p, loom::testing::timed_trace_of(w.trace, ab),
        sim::Time::ns(w.end_ns));
    const std::string what = std::string(w.property) + " / " + w.trace;
    ASSERT_TRUE(r.rejected()) << what;
    EXPECT_EQ(r.error_index, w.error_index) << what;
    EXPECT_EQ(r.reason.code, w.code) << what;
    EXPECT_EQ(r.reason.text(), w.text) << what;
  }
}

struct MonitorWitness {
  ReasonCode code;
  const char* property;
  const char* trace;  // "name@ns ..."
  std::uint64_t end_ns;
  bool poll;  // the watchdog poll() at end_ns instead of finish()
  const char* text;
  const char* report;  // Violation::to_string
};

// Renders `m`'s violation after the witness run, and again after a
// snapshot restore into a fresh instance of the same construction.
void expect_witness(const mon::CompiledProperty& compiled,
                    mon::Backend backend, const MonitorWitness& w,
                    spec::Alphabet& ab) {
  const std::string what = std::string(mon::to_string(backend)) + " " +
                           w.property + " / " + w.trace;
  auto m = compiled.instantiate(backend);
  for (const auto& ev : loom::testing::timed_trace_of(w.trace, ab)) {
    m->observe(ev.name, ev.time);
  }
  if (w.poll) {
    m->poll(sim::Time::ns(w.end_ns));
  } else {
    m->finish(sim::Time::ns(w.end_ns));
  }
  ASSERT_TRUE(m->violation().has_value()) << what;
  const mon::Violation& v = *m->violation();
  EXPECT_EQ(v.reason.code, w.code) << what;
  EXPECT_EQ(v.text(), w.text) << what;
  EXPECT_EQ(v.to_string(ab), w.report) << what;

  mon::Snapshot snap;
  m->snapshot(snap);
  auto restored = compiled.instantiate(backend);
  restored->restore(snap);
  ASSERT_TRUE(restored->violation().has_value()) << what;
  EXPECT_EQ(restored->violation()->reason, v.reason) << what;
  EXPECT_EQ(restored->violation()->text(), w.text) << what;
  EXPECT_EQ(restored->violation()->to_string(ab), w.report) << what;
}

const MonitorWitness kDrct[] = {
    {ReasonCode::NeverStarted, kConj, "c@10", 10, false,
     "fragment stopped before any of its ranges started",
     "violation at event #0 (t=10 ns) on 'c': fragment stopped before any of "
     "its ranges started"},
    {ReasonCode::OutsideFragment, kConj, "i@10", 10, false,
     "name from outside the active fragment (B or Af)",
     "violation at event #0 (t=10 ns) on 'i': name from outside the active "
     "fragment (B or Af)"},
    {ReasonCode::ConjUnobserved, kConj, "a@10 c@20", 20, false,
     "conjunctive fragment stopped before one of its ranges was observed",
     "violation at event #1 (t=20 ns) on 'c': conjunctive fragment stopped "
     "before one of its ranges was observed"},
    {ReasonCode::CountOverHi, kConj, "b@10 b@20", 20, false,
     "more than v=1 consecutive occurrences",
     "violation at event #1 (t=20 ns) on 'b': more than v=1 consecutive "
     "occurrences"},
    {ReasonCode::BlockBelowLo, kRanged, "a@10 b@20", 20, false,
     "block ended after 1 occurrences, below u=2",
     "violation at event #1 (t=20 ns) on 'b': block ended after 1 "
     "occurrences, below u=2"},
    {ReasonCode::StopBelowLo, kRanged, "a@10 c@20", 20, false,
     "fragment stopped after 1 occurrences, below u=2",
     "violation at event #1 (t=20 ns) on 'c': fragment stopped after 1 "
     "occurrences, below u=2"},
    {ReasonCode::BlockReopened, kConj, "b@10 a@20 b@30", 30, false,
     "range block reopened after it ended",
     "violation at event #2 (t=30 ns) on 'b': range block reopened after it "
     "ended"},
    {ReasonCode::DeadlineElapsed, kTimed, "p@10 p@20 q@20000", 20000, false,
     "deadline elapsed before the consequent finished",
     "violation at event #2 (t=20 us) on 'q': deadline elapsed before the "
     "consequent finished"},
    {ReasonCode::DeadlineWatchdog, kTimed, "p@10 p@20", 20000, true,
     "deadline elapsed before the consequent finished (watchdog)",
     "violation at event #2 (t=20 us): deadline elapsed before the consequent "
     "finished (watchdog)"},
    {ReasonCode::EndedLate, kTimed, "p@10 p@20", 20000, false,
     "observation ended after the deadline with the consequent unfinished",
     "violation at event #2 (t=20 us): observation ended after the deadline "
     "with the consequent unfinished"},
};

TEST(ReasonText, DrctWitnesses) {
  for (const auto& w : kDrct) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(w.property, ab);
    mon::CompileOptions opt;
    opt.backend = mon::Backend::Drct;
    expect_witness(mon::CompiledProperty::compile(p, ab, opt),
                   mon::Backend::Drct, w, ab);
  }
}

const MonitorWitness kViaPsl[] = {
    {ReasonCode::LexerOverHi, kConj, "b@10 b@20", 20, false,
     "lexer: block of '1' exceeds v=1",
     "violation at event #1 (t=20 ns) on 'b': lexer: block of '1' exceeds "
     "v=1"},
    {ReasonCode::LexerBelowLo, kRanged, "a@10 i@20", 20, false,
     "lexer: block of '0' ended after 1 occurrences, below u=2",
     "violation at event #1 (t=20 ns) on 'i': lexer: block of '0' ended after "
     "1 occurrences, below u=2"},
    {ReasonCode::PslConjunct, kConj, "a@10 c@20 a@30", 30, false,
     "PSL conjunct violated (max-one): always((a -> next((!a until! i))))",
     "violation at event #2 (t=30 ns) on 'a': PSL conjunct violated "
     "(max-one): always((a -> next((!a until! i))))"},
    {ReasonCode::DeadlineElapsed, kTimed, "p@10 p@20 q@30 q@20000", 20000,
     false, "deadline elapsed before the consequent finished",
     "violation at event #3 (t=20 us) on 'q': deadline elapsed before the "
     "consequent finished"},
    {ReasonCode::DeadlineWatchdog, kTimed, "p@10 p@20 q@30", 20000, true,
     "deadline elapsed before the consequent finished (watchdog)",
     "violation at event #3 (t=20 us): deadline elapsed before the consequent "
     "finished (watchdog)"},
    {ReasonCode::EndedLate, kTimed, "p@10 p@20 q@30", 20000, false,
     "observation ended after the deadline with the consequent unfinished",
     "violation at event #3 (t=20 us): observation ended after the deadline "
     "with the consequent unfinished"},
    {ReasonCode::FinishedLateBy, "(p => q[1,3], 10us)", "p@10 q@20", 20000,
     false,
     "consequent finished after the deadline (took 19990 ns, bound 10 us)",
     "violation at event #2 (t=20 us) on 'q': consequent finished after the "
     "deadline (took 19990 ns, bound 10 us)"},
};

TEST(ReasonText, ViaPslWitnesses) {
  for (const auto& w : kViaPsl) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(w.property, ab);
    mon::CompileOptions opt;
    opt.backend = mon::Backend::ViaPSL;
    expect_witness(mon::CompiledProperty::compile(p, ab, opt),
                   mon::Backend::ViaPSL, w, ab);
  }
}

}  // namespace
}  // namespace loom
