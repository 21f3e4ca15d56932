// Monitor snapshot/restore contract: restoring a snapshot reproduces the
// state at snapshot time bit for bit — continuing observation afterwards is
// indistinguishable from an uninterrupted run (verdict, violation report,
// Figure-6 stats, space accounting) — over fuzzed traces, for every monitor
// kind (Drct antecedent repeated and not, Drct timed, ViaPSL clause
// network) and for instances stamped from a mon::CompiledProperty.  The
// campaign engine leans on this: a mutant replayed from the valid walk's
// state at its divergence position must be byte-identical to a full
// replay — restored into a pooled monitor that violated before, and from a
// walk that may have violated too.
#include <gtest/gtest.h>

#include <functional>
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

using MonitorFactory = std::function<std::unique_ptr<Monitor>()>;

// A fuzzed trace: events drawn from the property's names plus two noise
// names, at strictly increasing times with jittered gaps.  Deterministic —
// the Rng is seeded per trial.
spec::Trace fuzz_trace(const std::vector<spec::Name>& names,
                       support::Rng& rng, sim::Time start = sim::Time()) {
  spec::Trace t;
  const std::size_t len = rng.below(40);
  sim::Time now = start;
  for (std::size_t i = 0; i < len; ++i) {
    now += sim::Time::ns(1 + rng.below(2000));
    t.push_back({names[rng.below(names.size())], now});
  }
  return t;
}

void feed(Monitor& m, const spec::Trace& t, std::size_t begin,
          std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    m.observe(t[i].name, t[i].time);
  }
}

void expect_same_outcome(Monitor& a, Monitor& b, const std::string& what) {
  EXPECT_EQ(a.verdict(), b.verdict()) << what;
  ASSERT_EQ(a.violation().has_value(), b.violation().has_value()) << what;
  if (a.violation() && b.violation()) {
    EXPECT_EQ(a.violation()->event_ordinal, b.violation()->event_ordinal)
        << what;
    EXPECT_EQ(a.violation()->time, b.violation()->time) << what;
    EXPECT_EQ(a.violation()->name, b.violation()->name) << what;
    EXPECT_EQ(a.violation()->reason, b.violation()->reason) << what;
    EXPECT_EQ(a.violation()->text(), b.violation()->text()) << what;
  }
  EXPECT_EQ(a.stats().ops, b.stats().ops) << what;
  EXPECT_EQ(a.stats().events, b.stats().events) << what;
  EXPECT_EQ(a.stats().max_ops_per_event, b.stats().max_ops_per_event) << what;
  EXPECT_EQ(a.space_bits(), b.space_bits()) << what;
}

// For every trial: run one uninterrupted reference instance over the whole
// trace.  Then replay the same trace through a second instance that, at a
// random cut point, snapshots, observes a junk detour (fresh events that
// would corrupt any state the restore failed to roll back — retirements,
// armed obligations, half-open lexer blocks), restores, and continues.  A
// third instance never sees the prefix at all: it restores the snapshot
// cold and replays only the suffix — exactly the campaign's checkpointed
// mutant replay.  All three must agree byte for byte.
void check_snapshot_restore(const MonitorFactory& make,
                            const std::vector<spec::Name>& names,
                            const char* label) {
  Snapshot snap;  // one reused buffer across all trials (capacity pool)
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    support::Rng rng = support::Rng::stream(0x5EED + trial, 11);
    const spec::Trace trace = fuzz_trace(names, rng);
    const std::size_t cut = trace.empty() ? 0 : rng.below(trace.size() + 1);
    const sim::Time end =
        trace.empty() ? sim::Time::zero() : trace.back().time;
    const std::string what =
        std::string(label) + " trial " + std::to_string(trial) + " cut " +
        std::to_string(cut) + "/" + std::to_string(trace.size());

    auto reference = make();
    feed(*reference, trace, 0, trace.size());
    reference->finish(end);

    auto interrupted = make();
    feed(*interrupted, trace, 0, cut);
    interrupted->snapshot(snap);
    // Junk detour: late-timestamped fuzz the restore must fully erase.
    const spec::Trace junk =
        fuzz_trace(names, rng, end + sim::Time::us(1));
    feed(*interrupted, junk, 0, junk.size());
    interrupted->restore(snap);
    feed(*interrupted, trace, cut, trace.size());
    interrupted->finish(end);
    expect_same_outcome(*reference, *interrupted, what + " [round-trip]");

    auto cold = make();
    cold->restore(snap);
    feed(*cold, trace, cut, trace.size());
    cold->finish(end);
    expect_same_outcome(*reference, *cold, what + " [cold restore]");
  }
}

struct Case {
  const char* label;
  const char* source;
};

constexpr Case kCases[] = {
    {"antecedent-repeated", "(n << i, true)"},
    {"antecedent-retiring", "(({a, b, c}, &) << s, false)"},
    {"antecedent-ranged",
     "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)"},
    {"timed", "(p[2,3] => q[1,4] < r, 10us)"},
};

std::vector<spec::Name> names_of(const spec::Property& p, spec::Alphabet& ab) {
  std::vector<spec::Name> names;
  p.alphabet().for_each(
      [&](std::size_t n) { names.push_back(static_cast<spec::Name>(n)); });
  names.push_back(ab.name("noise_x"));
  names.push_back(ab.name("noise_y"));
  return names;
}

TEST(MonSnapshot, DrctMonitorsRoundTripAtRandomCuts) {
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    check_snapshot_restore([&] { return make_monitor(p); }, names, c.label);
  }
}

TEST(MonSnapshot, ViaPslMonitorsRoundTripAtRandomCuts) {
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    const auto encoding =
        std::make_shared<const psl::Encoding>(psl::encode(p, 2000000, &ab));
    check_snapshot_restore(
        [&] { return std::make_unique<psl::ClauseMonitor>(encoding); }, names,
        c.label);
  }
}

TEST(MonSnapshot, CompiledInstancesRoundTripAtRandomCuts) {
  // The campaign's checkpoint ladders restore into instances stamped from
  // shared translate-once artifacts; the contract must hold there exactly
  // as for stand-alone construction, on both backends.
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    CompileOptions opt;
    opt.with_viapsl_artifact = true;
    const CompiledProperty compiled = CompiledProperty::compile(p, ab, opt);
    check_snapshot_restore([&] { return compiled.instantiate(Backend::Drct); },
                           names, c.label);
    check_snapshot_restore(
        [&] { return compiled.instantiate(Backend::ViaPSL); }, names,
        c.label);
  }
}

TEST(MonSnapshot, RestoreCrossesInstancesOfTheSamePlan) {
  // A snapshot written by one instance restores into a *different* pooled
  // instance of the same plan — the exact shape of the campaign engine,
  // where the ladder-building monitor dies long before the mutation units'
  // pooled monitors restore its checkpoints.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const auto names = names_of(p, ab);
  const CompiledProperty compiled = CompiledProperty::compile(p, ab);

  support::Rng rng = support::Rng::stream(99, 3);
  const spec::Trace trace = fuzz_trace(names, rng);
  const sim::Time end = trace.empty() ? sim::Time::zero() : trace.back().time;
  const std::size_t cut = trace.size() / 2;

  auto reference = compiled.instantiate();
  feed(*reference, trace, 0, trace.size());
  reference->finish(end);

  auto writer = compiled.instantiate();
  feed(*writer, trace, 0, cut);
  Snapshot snap;
  writer->snapshot(snap);
  writer.reset();  // the writer is gone before anyone restores

  auto pooled = compiled.instantiate();
  feed(*pooled, trace, 0, trace.size());  // dirty from unrelated work
  pooled->restore(snap);
  feed(*pooled, trace, cut, trace.size());
  pooled->finish(end);
  expect_same_outcome(*reference, *pooled, "cross-instance restore");
}

TEST(MonSnapshot, RestoreRejectsAForeignMonitorKind) {
  spec::Alphabet ab;
  const spec::Property ante = loom::testing::parse("(n << i, true)", ab);
  const spec::Property timed =
      loom::testing::parse("(p[2,3] => q[1,4] < r, 10us)", ab);

  auto a = make_monitor(ante);
  auto t = make_monitor(timed);
  Snapshot snap;
  a->snapshot(snap);
  EXPECT_THROW(t->restore(snap), std::logic_error);

  auto viapsl = std::make_unique<psl::ClauseMonitor>(psl::encode(ante));
  EXPECT_THROW(viapsl->restore(snap), std::logic_error);

  // And the clause network's snapshots are rejected right back by the
  // Drct monitors.
  Snapshot psl_snap;
  viapsl->snapshot(psl_snap);
  EXPECT_THROW(a->restore(psl_snap), std::logic_error);
  EXPECT_THROW(t->restore(psl_snap), std::logic_error);
}

TEST(MonSnapshot, OneBufferServesManySnapshotsWithoutGrowth) {
  // clear() keeps capacity: after the first snapshot of each shape the
  // buffer re-snapshots with stable word counts — the pooled-buffer
  // property the per-seed checkpoint ladders rely on.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const auto names = names_of(p, ab);
  auto monitor = make_monitor(p);
  Snapshot snap;
  support::Rng rng = support::Rng::stream(7, 7);
  const spec::Trace trace = fuzz_trace(names, rng);

  monitor->snapshot(snap);
  const std::size_t fresh_words = snap.word_count();
  EXPECT_GT(fresh_words, 0u);
  for (const auto& ev : trace) {
    monitor->observe(ev.name, ev.time);
    monitor->snapshot(snap);
    // Same automaton, same word layout: reuse never changes the format.
    // (A present violation report appends its ordinal/time/name words and
    // the reason's four code words.)
    const std::size_t expected =
        fresh_words + (monitor->violation().has_value() ? 7u : 0u);
    EXPECT_EQ(snap.word_count(), expected);
  }
}

// --- dirty restores and violations -----------------------------------------

Snapshot frame_of(const Monitor& m) {
  Snapshot s;
  m.snapshot(s);
  return s;
}

void expect_same_violation(const Monitor& got, const Monitor& want,
                           const std::string& what) {
  ASSERT_TRUE(got.violation().has_value()) << what;
  ASSERT_TRUE(want.violation().has_value()) << what;
  EXPECT_EQ(got.verdict(), Verdict::Violated) << what;
  EXPECT_EQ(got.violation()->event_ordinal, want.violation()->event_ordinal)
      << what;
  EXPECT_EQ(got.violation()->time, want.violation()->time) << what;
  EXPECT_EQ(got.violation()->name, want.violation()->name) << what;
  EXPECT_EQ(got.violation()->reason, want.violation()->reason) << what;
  EXPECT_EQ(got.violation()->text(), want.violation()->text()) << what;
}

TEST(MonSnapshot, RestoreIntoAViolatedMonitorContinuesLikeTheUninterruptedRun) {
  // At every cut of fuzzed traces (which violate early) and retiring ones
  // (a long valid prefix, then a fuzzed tail), in every property shape: the
  // state after the prefix restores into a Drct monitor holding a
  // violation — the dirtiest instance a pool hands out — as exactly that
  // state, and continues like the uninterrupted run.
  std::size_t cuts = 0;
  std::size_t violated_cuts = 0;
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);

    const auto dirty = make_monitor(p);
    for (std::uint64_t trial = 0; !dirty->violation().has_value(); ++trial) {
      ASSERT_LT(trial, 200u) << c.label << ": no violation left behind";
      dirty->reset();
      support::Rng rng = support::Rng::stream(0xD1E7 + trial, 31);
      dirty->observe_batch(fuzz_trace(names, rng));
    }
    const Snapshot dirty_state = frame_of(*dirty);

    for (std::uint64_t trial = 0; trial < 40; ++trial) {
      support::Rng rng = support::Rng::stream(0x5A7E + trial, 37);
      const spec::Trace traces[] = {
          fuzz_trace(names, rng),
          loom::testing::retiring_trace(p, ab, 0x5A7E + trial, 20)};
      for (std::size_t ti = 0; ti < 2; ++ti) {
        const spec::Trace& t = traces[ti];
        const sim::Time end = t.empty() ? sim::Time::zero() : t.back().time;
        const auto whole = make_monitor(p);
        whole->observe_batch(t);
        whole->finish(end);
        const Snapshot want = frame_of(*whole);

        const auto restored = make_monitor(p);
        for (std::size_t cut = 0; cut <= t.size(); ++cut) {
          const std::string what = std::string(c.label) + " trial " +
                                   std::to_string(trial) + " trace " +
                                   std::to_string(ti) + " cut " +
                                   std::to_string(cut);
          const auto head = make_monitor(p);
          head->observe_batch(t.data(), t.data() + cut);
          const Snapshot at_cut = frame_of(*head);
          // A snapshot is a pure function of the state: another monitor
          // that ran the same prefix writes the same words.
          {
            const auto twin = make_monitor(p);
            twin->observe_batch(t.data(), t.data() + cut);
            EXPECT_TRUE(
                loom::testing::snapshots_equal(frame_of(*twin), at_cut))
                << what << " [twin]";
          }
          restored->restore(dirty_state);
          ASSERT_TRUE(restored->violation().has_value()) << what;
          restored->restore(at_cut);
          EXPECT_TRUE(
              loom::testing::snapshots_equal(frame_of(*restored), at_cut))
              << what << " [restore]";
          restored->observe_batch(t.data() + cut, t.data() + t.size());
          restored->finish(end);
          expect_same_outcome(*whole, *restored, what);
          EXPECT_TRUE(
              loom::testing::snapshots_equal(frame_of(*restored), want))
              << what << " [continued]";
          ++cuts;
          if (head->violation().has_value()) ++violated_cuts;
        }
      }
    }
  }
  EXPECT_GT(cuts, 5000u);
  EXPECT_GT(violated_cuts, 2500u);
}

TEST(MonSnapshot, ASnapshotHoldingAViolationRestoresIt) {
  // (n << i, true): every i needs its own preceding n, so the ninth event
  // (ordinal 8), a second i in a row, violates.  Saving every 2 events —
  // how the campaign engine forks mutants from the valid walk — every
  // state restores into a violated monitor as the state after its prefix,
  // and from the fifth save on it carries the violation: ordinal, time,
  // name and reason.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(n << i, true)", ab);
  const spec::Trace t = loom::testing::trace_of(
      "n i n i n i n i i n i n i n i n i n i n", ab);
  ASSERT_EQ(t.size(), 20u);
  const auto probe = make_monitor(p);
  probe->observe_batch(t);
  ASSERT_TRUE(probe->violation().has_value());
  ASSERT_EQ(probe->violation()->event_ordinal, 8u);

  constexpr std::size_t kStride = 2;
  const auto walker = make_monitor(p);
  const auto target = make_monitor(p);
  std::size_t with_violation = 0;
  for (std::size_t k = 0; k < t.size() / kStride; ++k) {
    const spec::TimedEvent* first = t.data() + k * kStride;
    walker->observe_batch(first, first + kStride);
    const Snapshot saved = frame_of(*walker);
    target->reset();
    target->observe_batch(t);
    ASSERT_TRUE(target->violation().has_value());
    target->restore(saved);
    const auto prefix = make_monitor(p);
    prefix->observe_batch(t.data(), first + kStride);
    const std::string what = "save " + std::to_string(k);
    EXPECT_TRUE(loom::testing::snapshots_equal(frame_of(*target),
                                               frame_of(*prefix)))
        << what;
    if ((k + 1) * kStride > 8) {
      expect_same_violation(*target, *probe, what);
      ++with_violation;
    } else {
      EXPECT_FALSE(target->violation().has_value()) << what;
    }
  }
  EXPECT_EQ(with_violation, 6u);

  // A deadline violation leaves no range in the error state: the
  // violation alone is the state to carry.
  spec::Alphabet tab;
  const spec::Property timed =
      loom::testing::parse("(p[2,3] => q[1,4] < r, 10us)", tab);
  const auto late = make_monitor(timed);
  late->observe(tab.name("p"), sim::Time::us(1));
  late->observe(tab.name("p"), sim::Time::us(2));
  late->poll(sim::Time::us(20));
  ASSERT_EQ(late->verdict(), Verdict::Violated);
  const auto cold = make_monitor(timed);
  cold->restore(frame_of(*late));
  expect_same_violation(*cold, *late, "deadline");
  EXPECT_TRUE(
      loom::testing::snapshots_equal(frame_of(*cold), frame_of(*late)));
  // Both continue alike: a retired monitor stays retired.
  late->observe(tab.name("q"), sim::Time::us(21));
  cold->observe(tab.name("q"), sim::Time::us(21));
  late->finish(sim::Time::us(21));
  cold->finish(sim::Time::us(21));
  expect_same_outcome(*cold, *late, "deadline [continued]");
}

TEST(MonSnapshot, RestoreRejectsEveryTruncation) {
  // A snapshot cut short anywhere — in the tag word, inside the automata's
  // words or before the violation's words — rejects with a logic_error
  // instead of reading past its end, with and without a violation on
  // board, for every monitor kind.  A Drct snapshot holds words only, so
  // its rejection is always the reader's read-past-the-end diagnostic.
  spec::Alphabet ab;
  const spec::Property ante = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const spec::Property timed =
      loom::testing::parse("(p[2,3] => q[1,4] < r, 10us)", ab);
  const auto encoding = std::make_shared<const psl::Encoding>(
      psl::encode(ante, 2000000, &ab));
  const spec::Name n1 = ab.name("n1"), i = ab.name("i"), p = ab.name("p");
  struct Kind {
    const char* label;
    MonitorFactory make;
    spec::Name first;  // the first event of the clean run
    spec::Trace bad;   // a run that violates
    bool words_only;
  };
  const Kind kinds[] = {
      {"antecedent", [&] { return make_monitor(ante); }, n1,
       {{i, sim::Time::ns(10)}}, true},
      {"timed", [&] { return make_monitor(timed); }, p,
       {{p, sim::Time::us(1)}, {p, sim::Time::us(2)}, {p, sim::Time::us(20)}},
       true},
      {"viapsl",
       [&] { return std::make_unique<psl::ClauseMonitor>(encoding); }, n1,
       {{i, sim::Time::ns(10)}, {i, sim::Time::ns(20)}, {i, sim::Time::ns(30)}},
       false},
  };
  for (const Kind& kind : kinds) {
    const auto clean = kind.make();
    clean->observe(kind.first, sim::Time::ns(10));
    const auto violated = kind.make();
    violated->observe_batch(kind.bad);
    ASSERT_TRUE(violated->violation().has_value()) << kind.label;
    for (const Monitor* m : {clean.get(), violated.get()}) {
      const Snapshot full = frame_of(*m);
      const auto target = kind.make();
      for (std::size_t n = 0; n < full.word_count(); ++n) {
        Snapshot cut;
        for (std::size_t w = 0; w < n; ++w) cut.put_u64(full.words()[w]);
        const std::string what = std::string(kind.label) + " " +
                                 std::to_string(n) + " of " +
                                 std::to_string(full.word_count()) + " words";
        try {
          target->restore(cut);
          ADD_FAILURE() << what << ": a truncated snapshot was accepted";
        } catch (const std::logic_error& e) {
          if (kind.words_only) {
            EXPECT_STREQ(e.what(),
                         "SnapshotReader: read past the end of a snapshot "
                         "(truncated or foreign format)")
                << what;
          }
        }
      }
      target->restore(full);
      EXPECT_TRUE(loom::testing::snapshots_equal(frame_of(*target), full))
          << kind.label;
    }
  }
}

TEST(MonSnapshot, RestoreRejectsAFutureFormatVersionByName) {
  // A snapshot whose tag word carries a future format version — same
  // monitor kind, newer layout — must be refused by every monitor kind's
  // restore() with a diagnostic naming both versions, not misread.  The
  // forgery flips only the version half of the tag word, so the rejection
  // is provably the version check, not the kind check.
  spec::Alphabet ab;
  const spec::Property ante = loom::testing::parse("(n << i, true)", ab);
  const spec::Property timed =
      loom::testing::parse("(p[2,3] => q[1,4] < r, 10us)", ab);
  const auto encoding = std::make_shared<const psl::Encoding>(
      psl::encode(ante, 2000000, &ab));

  struct Kind {
    const char* label;
    std::unique_ptr<Monitor> monitor;
  };
  Kind kinds[3] = {
      {"antecedent", make_monitor(ante)},
      {"timed", make_monitor(timed)},
      {"viapsl", std::make_unique<psl::ClauseMonitor>(encoding)},
  };
  for (auto& kind : kinds) {
    Snapshot snap;
    kind.monitor->snapshot(snap);
    ASSERT_GT(snap.word_count(), 0u) << kind.label;
    const std::uint64_t tag = snap.words()[0];
    ASSERT_EQ(snapshot_tag_version(tag), kSnapshotVersion) << kind.label;
    snap.set_word(0, (std::uint64_t{kSnapshotVersion + 1} << 32) |
                         snapshot_tag_kind(tag));
    try {
      kind.monitor->restore(snap);
      FAIL() << kind.label << ": future-version snapshot was accepted";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("snapshot format version " +
                          std::to_string(kSnapshotVersion + 1)),
                std::string::npos)
          << kind.label << ": " << what;
      EXPECT_NE(what.find("reads version " + std::to_string(kSnapshotVersion)),
                std::string::npos)
          << kind.label << ": " << what;
    }
  }
}

}  // namespace
}  // namespace loom::mon
