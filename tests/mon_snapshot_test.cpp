// Monitor snapshot/restore contract: restoring a snapshot reproduces the
// state at snapshot time bit for bit — continuing observation afterwards is
// indistinguishable from an uninterrupted run (verdict, violation report,
// Figure-6 stats, space accounting) — over fuzzed traces, for every monitor
// kind (Drct antecedent repeated and not, Drct timed, ViaPSL clause
// network) and for instances stamped from a mon::CompiledProperty.  The
// checkpointed campaign engine leans on this: a mutant replayed from a
// restored checkpoint must be byte-identical to a full replay.
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
#include "wire/payload.hpp"
#include "wire/wire.hpp"

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
    // The bytecode VM frame: compiled separately because the program is
    // only materialized when the compile targets Backend::Vm.
    CompileOptions vm_opt;
    vm_opt.backend = Backend::Vm;
    const CompiledProperty vm = CompiledProperty::compile(p, ab, vm_opt);
    check_snapshot_restore([&] { return vm.instantiate(Backend::Vm); }, names,
                           c.label);
  }
}

TEST(MonSnapshot, VmRestoreCrossesInstancesOfTheSameProgram) {
  // The pooled campaign shape: a snapshot written by one VM frame restores
  // into a different, dirty frame stamped from the same program.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const auto names = names_of(p, ab);
  CompileOptions opt;
  opt.backend = Backend::Vm;
  const CompiledProperty compiled = CompiledProperty::compile(p, ab, opt);

  support::Rng rng = support::Rng::stream(101, 3);
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
  writer.reset();

  auto pooled = compiled.instantiate();
  feed(*pooled, trace, 0, trace.size());  // dirty from unrelated work
  pooled->restore(snap);
  feed(*pooled, trace, cut, trace.size());
  pooled->finish(end);
  expect_same_outcome(*reference, *pooled, "vm cross-instance restore");
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

  // The VM frame rejects every foreign format tag, and its own snapshots
  // are rejected right back by the Drct monitors.
  CompileOptions vm_opt;
  vm_opt.backend = Backend::Vm;
  const CompiledProperty vm_ante = CompiledProperty::compile(ante, ab, vm_opt);
  auto vm = vm_ante.instantiate();
  EXPECT_THROW(vm->restore(snap), std::logic_error);  // ANTC into VMFR
  Snapshot vm_snap;
  vm->snapshot(vm_snap);
  EXPECT_THROW(a->restore(vm_snap), std::logic_error);  // VMFR into ANTC
  EXPECT_THROW(t->restore(vm_snap), std::logic_error);  // VMFR into TIMD

  // Same tag, different program shape: a timed chain's frame layout does
  // not match the antecedent program's, and restore must say so rather
  // than misread the words.
  const CompiledProperty vm_timed =
      CompiledProperty::compile(timed, ab, vm_opt);
  auto vt = vm_timed.instantiate();
  EXPECT_THROW(vt->restore(vm_snap), std::logic_error);
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

TEST(MonSnapshot, VmFrameBufferReuseKeepsWordCountsStable) {
  // Same lockdown for the bytecode VM frame: its flat word layout is a
  // pure function of the program shape, so reusing one buffer across a
  // whole fuzzed run never changes the count except for the violation
  // report's seven appended words.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const auto names = names_of(p, ab);
  CompileOptions opt;
  opt.backend = Backend::Vm;
  const CompiledProperty compiled = CompiledProperty::compile(p, ab, opt);
  auto monitor = compiled.instantiate();
  Snapshot snap;
  support::Rng rng = support::Rng::stream(8, 7);
  const spec::Trace trace = fuzz_trace(names, rng);

  monitor->snapshot(snap);
  const std::size_t fresh_words = snap.word_count();
  EXPECT_GT(fresh_words, 0u);
  for (const auto& ev : trace) {
    monitor->observe(ev.name, ev.time);
    monitor->snapshot(snap);
    const std::size_t expected =
        fresh_words + (monitor->violation().has_value() ? 7u : 0u);
    EXPECT_EQ(snap.word_count(), expected);
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
  CompileOptions vm_opt;
  vm_opt.backend = Backend::Vm;
  const CompiledProperty vm_ante = CompiledProperty::compile(ante, ab, vm_opt);
  const auto encoding = std::make_shared<const psl::Encoding>(
      psl::encode(ante, 2000000, &ab));

  struct Kind {
    const char* label;
    std::unique_ptr<Monitor> monitor;
  };
  Kind kinds[4] = {
      {"antecedent", make_monitor(ante)},
      {"timed", make_monitor(timed)},
      {"viapsl", std::make_unique<psl::ClauseMonitor>(encoding)},
      {"vm", vm_ante.instantiate()},
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
    // The same forged snapshot through the wire decoder: rejected with a
    // positioned diagnostic (the pipe-facing twin of the restore() throw),
    // so a future-version snapshot cannot even enter a parent process.
    wire::Encoder enc;
    wire::encode_snapshot(enc, snap);
    Snapshot decoded;
    wire::Decoder d(enc.bytes());
    EXPECT_FALSE(wire::decode_snapshot(d, decoded)) << kind.label;
    EXPECT_FALSE(d.ok()) << kind.label;
    EXPECT_NE(d.error().message.find("snapshot format version " +
                                     std::to_string(kSnapshotVersion + 1)),
              std::string::npos)
        << kind.label << ": " << d.error().to_string();
  }
}

TEST(MonSnapshot, WirePathReusesBuffersLikeTheInMemoryPath) {
  // The wire crossing must keep the snapshot pool discipline: one Encoder,
  // one decode-target Snapshot and one source buffer serve a whole fuzzed
  // run without the encoder's buffer growing past its warmed capacity and
  // with the decoded word counts tracking the in-memory counts exactly.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const auto names = names_of(p, ab);
  auto monitor = make_monitor(p);
  support::Rng rng = support::Rng::stream(9, 7);
  const spec::Trace trace = fuzz_trace(names, rng);

  Snapshot snap;
  Snapshot decoded;
  wire::Encoder enc;
  // Warm-up pass: replay the whole trace once so the encoder has seen the
  // largest snapshot shape this run produces (a violation report appends
  // three words plus its reason string).
  for (const auto& ev : trace) {
    monitor->observe(ev.name, ev.time);
    monitor->snapshot(snap);
    enc.clear();
    wire::encode_snapshot(enc, snap);
  }
  monitor->reset();
  const std::size_t warm_bytes = enc.bytes().capacity();
  auto cold = make_monitor(p);
  for (const auto& ev : trace) {
    monitor->observe(ev.name, ev.time);
    monitor->snapshot(snap);
    enc.clear();
    wire::encode_snapshot(enc, snap);
    EXPECT_LE(enc.bytes().capacity(), warm_bytes);
    wire::Decoder d(enc.bytes());
    ASSERT_TRUE(wire::decode_snapshot(d, decoded)) << d.error().to_string();
    EXPECT_TRUE(d.exhausted());
    EXPECT_EQ(decoded.word_count(), snap.word_count());
    EXPECT_EQ(decoded.string_count(), snap.string_count());
    // And the decoded copy is restorable: the wire is not just shuttling
    // bytes, it is shuttling working monitor state.
    cold->restore(decoded);
    expect_same_outcome(*monitor, *cold, "wire-path restore");
  }
}

}  // namespace
}  // namespace loom::mon
