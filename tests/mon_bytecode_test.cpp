// The bytecode VM backend's lockdown wall: the compiler's instruction
// stream is pinned by golden disassembly (so opcode layout changes are a
// conscious diff, not an accident), and the interpreter is differentially
// fuzzed against the Drct monitors it compiles from — verdicts, violation
// reports (reason strings included), the Figure-6 op/event/max-ops
// accounting and the space bits must match event for event, stepped one
// at a time or in batches cut at random points, shifted or not.  ViaPSL
// rides along as the relational cross-check: a clause-network rejection must
// always be confirmed by the VM (no false alarms, psl_equivalence_test's
// relation 1 per prefix).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mon/bytecode.hpp"
#include "mon/compiled.hpp"
#include "mon/monitors.hpp"
#include "mon/snapshot.hpp"
#include "mon/vm.hpp"
#include "psl/clause_monitor.hpp"
#include "support/rng.hpp"
#include "testing.hpp"

namespace loom::mon {
namespace {

// --- golden disassembly ----------------------------------------------------

struct Golden {
  const char* source;
  const char* listing;
};

// The exact compiler output per property shape.  A failing diff here means
// the instruction layout changed: update the listing *and* re-run the fuzz
// suites below — they are what proves the new layout still executes the
// Drct semantics bit for bit.
constexpr Golden kGolden[] = {
    {"(n << i, true)",
     "vm antecedent repeated=1 fragments=1 ranges=1 names=64 space=9\n"
     "pool:\n"
     "  k0: [1,1] conj\n"
     "frags:\n"
     "  f0: r0..r0 conj\n"
     "ranges:\n"
     "  r0: n=#0 k0\n"
     "code:\n"
     "   0: retire.if       holds|violated\n"
     "   1: filter\n"
     "   2: dispatch\n"
     "   3: frag.step       f0 ok->4 none->5 err->7\n"
     "   4: complete.ante\n"
     "   5: note.progress\n"
     "   6: halt\n"
     "   7: latch.violation\n"
     "   8: halt\n"},
    {"(({a, b, c}, &) << s, false)",
     "vm antecedent repeated=0 fragments=1 ranges=3 names=64 space=17\n"
     "pool:\n"
     "  k0: [1,1] conj\n"
     "frags:\n"
     "  f0: r0..r2 conj\n"
     "ranges:\n"
     "  r0: n=#0 k0\n"
     "  r1: n=#1 k0\n"
     "  r2: n=#2 k0\n"
     "code:\n"
     "   0: retire.if       holds|violated\n"
     "   1: filter\n"
     "   2: dispatch\n"
     "   3: frag.step       f0 ok->4 none->5 err->7\n"
     "   4: complete.ante\n"
     "   5: note.progress\n"
     "   6: halt\n"
     "   7: latch.violation\n"
     "   8: halt\n"},
    {"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
     "vm antecedent repeated=1 fragments=3 ranges=5 names=64 space=33\n"
     "pool:\n"
     "  k0: [1,1] conj\n"
     "  k1: [2,8] disj\n"
     "  k2: [1,1] disj\n"
     "frags:\n"
     "  f0: r0..r1 conj\n"
     "  f1: r2..r3 disj\n"
     "  f2: r4..r4 conj\n"
     "ranges:\n"
     "  r0: n=#0 k0\n"
     "  r1: n=#1 k0\n"
     "  r2: n=#2 k1\n"
     "  r3: n=#3 k2\n"
     "  r4: n=#4 k0\n"
     "code:\n"
     "   0: retire.if       holds|violated\n"
     "   1: filter\n"
     "   2: dispatch\n"
     "   3: frag.step       f0 ok->6 none->9 err->11\n"
     "   4: frag.step       f1 ok->7 none->9 err->11\n"
     "   5: frag.step       f2 ok->8 none->9 err->11\n"
     "   6: advance         f1 ->9\n"
     "   7: advance         f2 ->9\n"
     "   8: complete.ante\n"
     "   9: note.progress\n"
     "  10: halt\n"
     "  11: latch.violation\n"
     "  12: halt\n"},
    {"(p[2,3] => q[1,4] < r, 10us)",
     "vm timed bound=10 us fragments=3 ranges=3 names=64 space=155\n"
     "pool:\n"
     "  k0: [2,3] conj\n"
     "  k1: [1,4] conj\n"
     "  k2: [1,1] conj\n"
     "frags:\n"
     "  f0: r0..r0 conj min-time\n"
     "  f1: r1..r1 conj\n"
     "  f2: r2..r2 conj min-time\n"
     "ranges:\n"
     "  r0: n=#0 k0\n"
     "  r1: n=#1 k1\n"
     "  r2: n=#2 k2\n"
     "code:\n"
     "   0: retire.if       violated\n"
     "   1: filter\n"
     "   2: deadline.guard\n"
     "   3: dispatch\n"
     "   4: frag.step       f0 ok->7 none->10 err->13\n"
     "   5: frag.step       f1 ok->8 none->10 err->13\n"
     "   6: frag.step       f2 ok->9 none->10 err->13\n"
     "   7: advance         f1 ->10\n"
     "   8: advance         f2 ->10\n"
     "   9: complete.timed\n"
     "  10: update.timing\n"
     "  11: note.progress\n"
     "  12: halt\n"
     "  13: latch.violation\n"
     "  14: halt\n"},
};

TEST(MonBytecodeDisasm, GoldenListingsPerPropertyShape) {
  for (const auto& g : kGolden) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(g.source, ab);
    const auto program = compile_vm(p);
    EXPECT_EQ(disassemble(*program), g.listing) << g.source;
  }
}

TEST(MonBytecodeDisasm, CompileIsAPureFunctionOfTheProperty) {
  // Two compilations of the same property — one with the caller's plan,
  // one planning internally — disassemble identically, which is what lets
  // the reference loop's per-unit translation rebuild byte-identical
  // programs.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const auto internal = compile_vm(p);
  const auto shared_plan = std::make_shared<const spec::OrderingPlan>(
      spec::plan_antecedent(p.antecedent()));
  const auto external = compile_vm(p, shared_plan);
  EXPECT_EQ(disassemble(*internal), disassemble(*external));
  EXPECT_EQ(internal->code.size(), external->code.size());
  EXPECT_EQ(internal->space_bits, external->space_bits);
}

// --- differential fuzz: VM ≡ Drct ≡ (relationally) ViaPSL -----------------

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

void expect_same_outcome(Monitor& vm, Monitor& drct, const std::string& what) {
  EXPECT_EQ(vm.verdict(), drct.verdict()) << what;
  ASSERT_EQ(vm.violation().has_value(), drct.violation().has_value()) << what;
  if (vm.violation() && drct.violation()) {
    EXPECT_EQ(vm.violation()->event_ordinal, drct.violation()->event_ordinal)
        << what;
    EXPECT_EQ(vm.violation()->time, drct.violation()->time) << what;
    EXPECT_EQ(vm.violation()->name, drct.violation()->name) << what;
    EXPECT_EQ(vm.violation()->reason, drct.violation()->reason) << what;
    EXPECT_EQ(vm.violation()->text(), drct.violation()->text()) << what;
  }
  EXPECT_EQ(vm.stats().ops, drct.stats().ops) << what;
  EXPECT_EQ(vm.stats().events, drct.stats().events) << what;
  EXPECT_EQ(vm.stats().max_ops_per_event, drct.stats().max_ops_per_event)
      << what;
  EXPECT_EQ(vm.space_bits(), drct.space_bits()) << what;
}

TEST(MonBytecodeFuzz, VmMatchesDrctEventForEventAndViaPslNeverLeads) {
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    const auto program = compile_vm(p);
    const auto encoding =
        std::make_shared<const psl::Encoding>(psl::encode(p, 2000000, &ab));

    for (std::uint64_t trial = 0; trial < 80; ++trial) {
      support::Rng rng = support::Rng::stream(0xB17E + trial, 5);
      const spec::Trace trace = fuzz_trace(names, rng);
      const sim::Time end =
          trace.empty() ? sim::Time::zero() : trace.back().time;

      VmMonitor vm(program);
      auto drct = make_monitor(p);
      psl::ClauseMonitor viapsl(encoding);
      for (std::size_t i = 0; i < trace.size(); ++i) {
        vm.observe(trace[i].name, trace[i].time);
        drct->observe(trace[i].name, trace[i].time);
        viapsl.observe(trace[i].name, trace[i].time);
        const std::string what = std::string(c.label) + " trial " +
                                 std::to_string(trial) + " event " +
                                 std::to_string(i);
        EXPECT_EQ(vm.verdict(), drct->verdict()) << what;
        // Relational cross-check: the clause network never rejects a
        // prefix the direct construction accepts.
        if (viapsl.verdict() == Verdict::Violated) {
          EXPECT_EQ(vm.verdict(), Verdict::Violated) << what << " [viapsl]";
        }
      }
      vm.finish(end);
      drct->finish(end);
      viapsl.finish(end);
      const std::string what = std::string(c.label) + " trial " +
                               std::to_string(trial) + " [finish]";
      expect_same_outcome(vm, *drct, what);
      if (viapsl.verdict() == Verdict::Violated) {
        EXPECT_EQ(vm.verdict(), Verdict::Violated) << what << " [viapsl]";
      }
    }
  }
}

TEST(MonBytecodeFuzz, ObserveBatchAtRandomCutsEqualsTheEventLoop) {
  // The devirtualized VmMonitor::observe_batch over arbitrary slice splits
  // must be indistinguishable from the per-event loop — the replay cache's
  // batched path depends on exactly this.
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    const auto program = compile_vm(p);

    for (std::uint64_t trial = 0; trial < 40; ++trial) {
      support::Rng rng = support::Rng::stream(0xBA7C + trial, 5);
      const spec::Trace trace = fuzz_trace(names, rng);
      const sim::Time end =
          trace.empty() ? sim::Time::zero() : trace.back().time;

      VmMonitor looped(program);
      for (const auto& ev : trace) looped.observe(ev.name, ev.time);
      looped.finish(end);

      VmMonitor batched(program);
      std::size_t done = 0;
      while (done < trace.size()) {
        const std::size_t cut =
            done + 1 + rng.below(trace.size() - done);
        batched.observe_batch(trace.data() + done, trace.data() + cut);
        done = cut;
      }
      batched.finish(end);
      expect_same_outcome(batched, looped,
                          std::string(c.label) + " trial " +
                              std::to_string(trial) + " [batch-cuts]");
    }
  }
}

TEST(MonBytecodeFuzz, ResetReusesTheFrameBitForBit) {
  // One VM frame reset between fuzzed traces equals a fresh frame per
  // trace — the pooled-monitor shape of the campaign shards.
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    const auto program = compile_vm(p);
    VmMonitor pooled(program);
    for (std::uint64_t trial = 0; trial < 30; ++trial) {
      support::Rng rng = support::Rng::stream(0x4E5E + trial, 9);
      const spec::Trace trace = fuzz_trace(names, rng);
      const sim::Time end =
          trace.empty() ? sim::Time::zero() : trace.back().time;
      pooled.reset();
      VmMonitor fresh(program);
      for (const auto& ev : trace) {
        pooled.observe(ev.name, ev.time);
        fresh.observe(ev.name, ev.time);
      }
      pooled.finish(end);
      fresh.finish(end);
      expect_same_outcome(pooled, fresh,
                          std::string(c.label) + " trial " +
                              std::to_string(trial) + " [reset-reuse]");
    }
  }
}

// --- retirement fast-forward ------------------------------------------------
//
// Once a frame retires (Violated, or Holds for a non-repeated antecedent)
// vm_run_batch counts the rest of the slice in one step instead of
// executing retire.if per event.  Every trace below retires part-way, with
// a long tail; batched execution must land on
// the per-event loop's bytes — verdict, violation, stats and the event
// ordinal, which only the snapshot exposes.

void expect_same_frame(Monitor& got, Monitor& want, const Snapshot& got_snap,
                       const std::string& what) {
  expect_same_outcome(got, want, what);
  Snapshot want_snap;
  want.snapshot(want_snap);
  EXPECT_TRUE(loom::testing::snapshots_equal(got_snap, want_snap)) << what;
}

bool retired(Verdict v) {
  return v == Verdict::Violated || v == Verdict::Holds;
}

TEST(MonBytecodeRetire, ObserveBatchRetiringMidSliceEqualsTheEventLoop) {
  std::size_t mid_slice = 0;
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto program = compile_vm(p);
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      const spec::Trace trace =
          loom::testing::retiring_trace(p, ab, 0x7E71 + seed, 150);
      VmMonitor looped(program);
      std::size_t retired_at = trace.size();
      for (std::size_t i = 0; i < trace.size(); ++i) {
        looped.observe(trace[i].name, trace[i].time);
        if (retired_at == trace.size() && retired(looped.verdict())) {
          retired_at = i;
        }
      }
      if (retired_at + 1 < trace.size()) ++mid_slice;
      const std::string what =
          std::string(c.label) + " seed " + std::to_string(seed);

      VmMonitor whole(program);
      whole.observe_batch(trace);
      Snapshot snap;
      whole.snapshot(snap);
      expect_same_frame(whole, looped, snap, what + " [whole slice]");

      VmMonitor cut(program);
      support::Rng rng = support::Rng::stream(seed, 23);
      std::size_t done = 0;
      while (done < trace.size()) {
        const std::size_t next = done + 1 + rng.below(trace.size() - done);
        cut.observe_batch(trace.data() + done, trace.data() + next);
        done = next;
      }
      cut.snapshot(snap);
      expect_same_frame(cut, looped, snap, what + " [random cuts]");
    }
  }
  EXPECT_GT(mid_slice, 100u);
}

// Complete frame state of a monitor as a Snapshot: stats, verdict,
// violation, every range reason and the event ordinal.
Snapshot frame_of(const Monitor& m) {
  Snapshot s;
  m.snapshot(s);
  return s;
}

// --- shifted slices -----------------------------------------------------------
//
// A StallDeadline mutant's tail is a piece of the valid trace replayed with
// every time later by a shift (Monitor::observe_shifted, vm_run_batch's
// shift).  Each slice, cut anywhere, must land on the bytes of the
// per-event loop over the re-timed events — for the VM's batched override
// and for the base class's loop that Drct inherits, and with shifts that
// saturate at Time::max().

sim::Time draw_shift(support::Rng& rng) {
  switch (rng.below(4)) {
    case 0:
      return sim::Time::zero();
    case 1:
      return sim::Time::ps(1 + rng.below(1000));
    case 2:
      return sim::Time::us(1 + rng.below(50));
    default:  // saturates somewhere inside the trace
      return sim::Time::max() - sim::Time::us(1 + rng.below(40));
  }
}

TEST(MonBytecodeShift, ShiftedSlicesEqualTheShiftedEventLoop) {
  std::size_t saturated = 0;
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    const auto program = compile_vm(p);
    for (std::uint64_t trial = 0; trial < 60; ++trial) {
      support::Rng rng = support::Rng::stream(0x5A1F + trial, 7);
      const spec::Trace trace = fuzz_trace(names, rng);
      const sim::Time shift = draw_shift(rng);
      const sim::Time end =
          (trace.empty() ? sim::Time::zero() : trace.back().time) + shift;
      if (end == sim::Time::max()) ++saturated;
      const std::string what = std::string(c.label) + " trial " +
                               std::to_string(trial) + " shift " +
                               std::to_string(shift.picoseconds()) + "ps";

      VmMonitor looped(program);
      auto drct_looped = make_monitor(p);
      for (const auto& ev : trace) {
        looped.observe(ev.name, ev.time + shift);
        drct_looped->observe(ev.name, ev.time + shift);
      }
      looped.finish(end);
      drct_looped->finish(end);

      VmMonitor vm(program);
      auto drct = make_monitor(p);
      std::size_t done = 0;
      while (done < trace.size()) {
        const std::size_t cut = done + 1 + rng.below(trace.size() - done);
        vm.observe_shifted(trace.data() + done, trace.data() + cut, shift);
        drct->observe_shifted(trace.data() + done, trace.data() + cut, shift);
        done = cut;
      }
      vm.finish(end);
      drct->finish(end);

      expect_same_frame(vm, looped, frame_of(vm), what + " [vm]");
      Snapshot drct_snap;
      drct->snapshot(drct_snap);
      expect_same_frame(*drct, *drct_looped, drct_snap, what + " [drct]");
      expect_same_outcome(vm, *drct, what + " [vm vs drct]");
    }
  }
  EXPECT_GT(saturated, 10u);
}

TEST(MonBytecodeShift, RetiringMidShiftedSliceEqualsTheEventLoop) {
  // The retirement fast-forward counts the rest of a slice in one step;
  // under a shift it must still count exactly the events the re-timed
  // per-event loop steps.
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto program = compile_vm(p);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const spec::Trace trace =
          loom::testing::retiring_trace(p, ab, 0x5E71 + seed, 150);
      support::Rng rng = support::Rng::stream(seed, 29);
      const sim::Time shift = draw_shift(rng);
      const std::string what = std::string(c.label) + " seed " +
                               std::to_string(seed) + " shift " +
                               std::to_string(shift.picoseconds()) + "ps";
      VmMonitor looped(program);
      for (const auto& ev : trace) looped.observe(ev.name, ev.time + shift);

      VmMonitor whole(program);
      whole.observe_shifted(trace.data(), trace.data() + trace.size(), shift);
      expect_same_frame(whole, looped, frame_of(whole),
                        what + " [whole slice]");

      VmMonitor cut(program);
      std::size_t done = 0;
      while (done < trace.size()) {
        const std::size_t next = done + 1 + rng.below(trace.size() - done);
        cut.observe_shifted(trace.data() + done, trace.data() + next, shift);
        done = next;
      }
      expect_same_frame(cut, looped, frame_of(cut), what + " [random cuts]");
    }
  }
}

// --- compact checkpoint rungs ----------------------------------------------
//
// vm_save_rung / vm_load_rung are the checkpoint ladder's rung format for
// Vm monitors: raw word and byte copies of the frame, with no violation.  A
// loaded rung must continue exactly like the Snapshot restore it replaces
// and like the uninterrupted run — into a frame that held anything before.

// Failure records in a VM frame: the ranges in the error state plus a
// present violation.
std::size_t reasons_in(const VmMonitor& m) {
  std::size_t n = m.violation().has_value() ? 1 : 0;
  for (std::uint32_t r = 0; r < m.program().range_total; ++r) {
    if (m.range_state(r) ==
        static_cast<std::uint8_t>(RangeRecognizer::State::Error)) {
      ++n;
    }
  }
  return n;
}

// Drives `observe` over fuzzed traces until the frame holds a violation
// latched from a range error — so it carries a violation and at least one
// range in the error state — the dirtiest state a pooled frame can be
// drawn in.
template <typename Observe, typename Frame, typename Reset>
void make_dirty(const std::vector<spec::Name>& names, std::uint64_t seed,
                Observe observe, Frame frame, Reset reset) {
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    reset();
    support::Rng rng = support::Rng::stream(seed + trial, 31);
    const spec::Trace t = fuzz_trace(names, rng);
    observe(t);
    if (reasons_in(frame()) >= 2) return;
  }
  FAIL() << "no fuzzed trace left a range reason behind";
}

// The traces every rung test cuts: fuzzed ones (which violate early) and
// retiring ones (a long valid prefix, then a fuzzed tail), so accepted and
// refused cuts both occur in every program shape.
std::vector<spec::Trace> rung_traces(const spec::Property& p,
                                     spec::Alphabet& ab,
                                     const std::vector<spec::Name>& names,
                                     std::uint64_t seed) {
  std::vector<spec::Trace> traces;
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    support::Rng rng = support::Rng::stream(seed + trial, 37);
    traces.push_back(fuzz_trace(names, rng));
    traces.push_back(loom::testing::retiring_trace(p, ab, seed + trial, 20));
  }
  return traces;
}

TEST(MonVmRung, LoadContinuesLikeASnapshotRestoreAndTheUninterruptedRun) {
  std::size_t saved = 0;
  std::size_t refused = 0;
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    const auto program = compile_vm(p);
    const std::size_t words = vm_rung_words(*program);
    EXPECT_EQ(words, 8 + program->frag_count +
                         (5 * program->range_total +
                          2 * program->frag_count + 7) / 8)
        << c.label;

    VmMonitor dirty(program);
    make_dirty(
        names, 0xD1E7, [&](const spec::Trace& t) { dirty.observe_batch(t); },
        [&]() -> const VmMonitor& { return dirty; }, [&] { dirty.reset(); });

    const auto traces = rung_traces(p, ab, names, 0x5A7E);
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
      const spec::Trace& t = traces[ti];
      const sim::Time end = t.empty() ? sim::Time::zero() : t.back().time;
      VmMonitor whole(program);
      whole.observe_batch(t);
      whole.finish(end);

      for (std::size_t cut = 0; cut <= t.size(); ++cut) {
        const std::string what = std::string(c.label) + " trace " +
                                 std::to_string(ti) + " cut " +
                                 std::to_string(cut);
        VmMonitor head(program);
        head.observe_batch(t.data(), t.data() + cut);
        std::vector<std::uint64_t> rung(words, ~std::uint64_t{0});
        const bool ok = head.save_rung(rung.data());
        if (head.violation().has_value()) {
          EXPECT_FALSE(ok) << what << ": saved a violated frame";
        }
        if (!ok) {
          ++refused;
          continue;
        }
        ++saved;
        const Snapshot at_cut = frame_of(head);

        // Saving is a pure function of the state: another monitor that ran
        // the same prefix writes the same words, padding included.
        {
          VmMonitor twin(program);
          twin.observe_batch(t.data(), t.data() + cut);
          std::vector<std::uint64_t> twin_rung(words, 0);
          ASSERT_TRUE(twin.save_rung(twin_rung.data())) << what;
          EXPECT_EQ(twin_rung, rung) << what;
        }

        // Load into the dirty monitor: it now holds exactly the state at
        // the cut, range errors and violation cleared.
        VmMonitor loaded(program);
        loaded.restore(frame_of(dirty));
        ASSERT_TRUE(loaded.violation().has_value()) << what;
        loaded.load_rung(rung.data());
        EXPECT_TRUE(loom::testing::snapshots_equal(frame_of(loaded), at_cut))
            << what << " [monitor load]";

        // Continue both: the rung-loaded monitor and a Snapshot-restored
        // one must finish like the whole run.
        VmMonitor restored(program);
        restored.restore(at_cut);
        loaded.observe_batch(t.data() + cut, t.data() + t.size());
        restored.observe_batch(t.data() + cut, t.data() + t.size());
        loaded.finish(end);
        restored.finish(end);
        expect_same_frame(loaded, whole, frame_of(loaded), what + " [load]");
        expect_same_frame(restored, whole, frame_of(restored),
                          what + " [restore]");
      }
    }
  }
  EXPECT_GT(saved, 2500u);
  EXPECT_GT(refused, 2500u);
}

TEST(MonVmRung, SaveRefusesAViolatedFrame) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(n << i, true)", ab);
  const auto program = compile_vm(p);
  VmMonitor m(program);
  std::vector<std::uint64_t> rung(vm_rung_words(*program));
  EXPECT_TRUE(m.save_rung(rung.data()));
  // A trigger with no preceding n violates at once.
  m.observe(ab.name("i"), sim::Time::ns(10));
  ASSERT_EQ(m.verdict(), Verdict::Violated);
  // A refused save leaves the earlier rung untouched.
  const std::vector<std::uint64_t> earlier = rung;
  EXPECT_FALSE(m.save_rung(rung.data()));
  EXPECT_EQ(rung, earlier);

  // A deadline violation leaves no range in the error state: the
  // violation alone must refuse the rung.
  spec::Alphabet tab;
  const spec::Property timed =
      loom::testing::parse("(p[2,3] => q[1,4] < r, 10us)", tab);
  const auto timed_program = compile_vm(timed);
  VmMonitor late(timed_program);
  late.observe(tab.name("p"), sim::Time::us(1));
  late.observe(tab.name("p"), sim::Time::us(2));
  std::vector<std::uint64_t> timed_rung(vm_rung_words(*timed_program));
  EXPECT_TRUE(late.save_rung(timed_rung.data()));
  late.poll(sim::Time::us(20));
  ASSERT_EQ(late.verdict(), Verdict::Violated);
  EXPECT_EQ(reasons_in(late), 1u);  // the violation's own
  EXPECT_FALSE(late.save_rung(timed_rung.data()));
}

// The rung after (k + 1)·stride events of `t`, as a Snapshot of a monitor
// that observed exactly that prefix.
Snapshot state_after(std::unique_ptr<Monitor> m, const spec::Trace& t,
                     std::size_t events) {
  m->observe_batch(t.data(), t.data() + events);
  return frame_of(*m);
}

TEST(MonVmRung, RungsRestoreEveryPrefixUpToTheFirstRefusal) {
  // (n << i, true): every i needs its own preceding n.  The hand-built
  // trace alternates n i, but its ninth event (ordinal 8) is a second i in
  // a row: the monitor violates there.  Saving every 2 events, a Vm frame
  // yields the four compact rungs before the violation and refuses every
  // later save; a Drct monitor, whose Snapshots can hold a violation,
  // snapshots all ten prefixes.  This is how the campaign engine forks a
  // mutant's replay from the valid walk.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(n << i, true)", ab);
  const spec::Trace t = loom::testing::trace_of(
      "n i n i n i n i i n i n i n i n i n i n", ab);
  ASSERT_EQ(t.size(), 20u);
  const auto program = compile_vm(p);
  {
    VmMonitor probe(program);
    probe.observe_batch(t);
    ASSERT_TRUE(probe.violation().has_value());
    ASSERT_EQ(probe.violation()->event_ordinal, 8u);
  }
  constexpr std::size_t kStride = 2;
  const std::size_t words = vm_rung_words(*program);

  VmMonitor walker(program);
  std::vector<std::vector<std::uint64_t>> rungs;
  auto drct_walker = make_monitor(p);
  std::vector<Snapshot> snapshots;
  std::vector<std::uint64_t> refused(words);
  std::size_t refusals = 0;
  for (std::size_t k = 0; k < t.size() / kStride; ++k) {
    const spec::TimedEvent* first = t.data() + k * kStride;
    walker.observe_batch(first, first + kStride);
    drct_walker->observe_batch(first, first + kStride);
    std::vector<std::uint64_t> rung(words);
    if (walker.save_rung(rung.data())) {
      EXPECT_EQ(refusals, 0u) << "a save succeeded after a refusal";
      rungs.push_back(std::move(rung));
    } else {
      ++refusals;
    }
    drct_walker->snapshot(snapshots.emplace_back());
  }
  EXPECT_EQ(rungs.size(), 4u);
  EXPECT_EQ(snapshots.size(), t.size() / kStride);

  // Every saved state restores the state after its prefix into a dirty
  // monitor.
  VmMonitor target(program);
  target.observe_batch(t);  // violated monitor
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    const Snapshot want = state_after(std::make_unique<VmMonitor>(program), t,
                                      (k + 1) * kStride);
    target.load_rung(rungs[k].data());
    EXPECT_TRUE(loom::testing::snapshots_equal(frame_of(target), want))
        << "rung " << k;
  }
  auto drct = make_monitor(p);
  drct->observe_batch(t);
  for (std::size_t k = 0; k < snapshots.size(); ++k) {
    drct->restore(snapshots[k]);
    EXPECT_TRUE(loom::testing::snapshots_equal(
        frame_of(*drct), state_after(make_monitor(p), t, (k + 1) * kStride)))
        << "drct snapshot " << k;
  }
}

}  // namespace
}  // namespace loom::mon
