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

}  // namespace
}  // namespace loom::mon
