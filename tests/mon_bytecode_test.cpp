// The bytecode VM backend's lockdown wall: the compiler's instruction
// stream is pinned by golden disassembly (so opcode layout changes are a
// conscious diff, not an accident), and the interpreter is differentially
// fuzzed against the Drct monitors it compiles from — verdicts, violation
// reports (reason strings included), the Figure-6 op/event/max-ops
// accounting and the space bits must match event for event, through both
// MonitorModule batch policies, at random batch cut points, and lane for
// lane through VmLaneBatch's block-lockstep.  ViaPSL rides
// along as the relational cross-check: a clause-network rejection must
// always be confirmed by the VM (no false alarms, psl_equivalence_test's
// relation 1 per prefix).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mon/bytecode.hpp"
#include "mon/checkpoint_ladder.hpp"
#include "mon/compiled.hpp"
#include "mon/monitor_module.hpp"
#include "mon/monitors.hpp"
#include "mon/snapshot.hpp"
#include "mon/vm.hpp"
#include "psl/clause_monitor.hpp"
#include "sim/scheduler.hpp"
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
  // the campaign's legacy per-unit path rebuild byte-identical programs.
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

// --- MonitorModule batch policies ------------------------------------------

TEST(MonBytecodeBatch, BothModulePoliciesMatchDrctHostedTheSameWay) {
  // Host a VM monitor and a Drct monitor in identical MonitorModules and
  // replay random slice splits under each BatchPolicy: verdicts, stats and
  // callback counts must agree policy for policy.
  using Policy = MonitorModule::BatchPolicy;
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    const auto program = compile_vm(p);

    for (const Policy policy : {Policy::StopAtViolation, Policy::ReplayAll}) {
      for (std::uint64_t trial = 0; trial < 30; ++trial) {
        support::Rng rng = support::Rng::stream(0x90DE + trial, 13);
        const spec::Trace trace = fuzz_trace(names, rng);
        const std::size_t cut =
            trace.empty() ? 0 : rng.below(trace.size() + 1);
        const sim::Time end =
            trace.empty() ? sim::Time::zero() : trace.back().time;
        const std::string what =
            std::string(c.label) + " trial " + std::to_string(trial) +
            (policy == Policy::ReplayAll ? " [replay-all]" : " [stop]");

        VmMonitor vm(program);
        auto drct = make_monitor(p);
        sim::Scheduler sched;
        MonitorModule vm_host(sched, "vm", vm, ab);
        MonitorModule drct_host(sched, "drct", *drct, ab);
        vm_host.set_arm_watchdogs(false);
        drct_host.set_arm_watchdogs(false);
        std::size_t vm_fires = 0;
        std::size_t drct_fires = 0;
        vm_host.on_violation([&](const Violation&) { ++vm_fires; });
        drct_host.on_violation([&](const Violation&) { ++drct_fires; });

        // Two slices around a random cut, same policy both hosts.
        spec::Trace head(trace.begin(), trace.begin() + cut);
        spec::Trace tail(trace.begin() + cut, trace.end());
        vm_host.observe_batch(head, policy);
        vm_host.observe_batch(tail, policy);
        drct_host.observe_batch(head, policy);
        drct_host.observe_batch(tail, policy);
        vm.finish(end);
        drct->finish(end);

        expect_same_outcome(vm, *drct, what);
        EXPECT_EQ(vm_fires, drct_fires) << what;
      }
    }
  }
}

// --- VmLaneBatch ≡ independent VmMonitors ----------------------------------

TEST(MonBytecodeLanes, LockstepLanesEqualIndependentMonitors) {
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    const auto program = compile_vm(p);

    constexpr std::size_t kLanes = 8;
    VmLaneBatch lanes(program, kLanes);
    ASSERT_EQ(lanes.lanes(), kLanes);

    for (std::uint64_t round = 0; round < 6; ++round) {
      // Per-lane traces of deliberately different lengths: exhausted lanes
      // must sit out the lockstep tail untouched.
      std::vector<spec::Trace> traces;
      for (std::size_t l = 0; l < kLanes; ++l) {
        support::Rng rng = support::Rng::stream(0x1A9E + round * kLanes + l, 3);
        traces.push_back(fuzz_trace(names, rng));
      }
      std::vector<const spec::Trace*> ptrs;
      for (const auto& t : traces) ptrs.push_back(&t);

      for (std::size_t l = 0; l < kLanes; ++l) lanes.reset(l);
      lanes.run(ptrs);

      for (std::size_t l = 0; l < kLanes; ++l) {
        const sim::Time end =
            traces[l].empty() ? sim::Time::zero() : traces[l].back().time;
        lanes.finish(l, end);

        VmMonitor solo(program);
        for (const auto& ev : traces[l]) solo.observe(ev.name, ev.time);
        solo.finish(end);

        const std::string what = std::string(c.label) + " round " +
                                 std::to_string(round) + " lane " +
                                 std::to_string(l);
        EXPECT_EQ(lanes.verdict(l), solo.verdict()) << what;
        ASSERT_EQ(lanes.violation(l).has_value(), solo.violation().has_value())
            << what;
        if (lanes.violation(l) && solo.violation()) {
          EXPECT_EQ(lanes.violation(l)->event_ordinal,
                    solo.violation()->event_ordinal)
              << what;
          EXPECT_EQ(lanes.violation(l)->time, solo.violation()->time) << what;
          EXPECT_EQ(lanes.violation(l)->name, solo.violation()->name) << what;
          EXPECT_EQ(lanes.violation(l)->reason, solo.violation()->reason)
              << what;
        }
        EXPECT_EQ(lanes.stats(l).ops, solo.stats().ops) << what;
        EXPECT_EQ(lanes.stats(l).events, solo.stats().events) << what;
        EXPECT_EQ(lanes.stats(l).max_ops_per_event,
                  solo.stats().max_ops_per_event)
            << what;
        EXPECT_EQ(lanes.space_bits(), solo.space_bits()) << what;
      }
    }
  }
}

TEST(MonBytecodeLanes, PerLaneBatchSlicesMatchTheLockstepRun) {
  // observe_batch on individual lanes at arbitrary cuts lands on the same
  // bytes as run()'s block-lockstep sweep.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const auto names = names_of(p, ab);
  const auto program = compile_vm(p);

  constexpr std::size_t kLanes = 4;
  std::vector<spec::Trace> traces;
  for (std::size_t l = 0; l < kLanes; ++l) {
    support::Rng rng = support::Rng::stream(0xC4A0 + l, 17);
    traces.push_back(fuzz_trace(names, rng));
  }
  std::vector<const spec::Trace*> ptrs;
  for (const auto& t : traces) ptrs.push_back(&t);

  VmLaneBatch lockstep(program, kLanes);
  lockstep.run(ptrs);

  VmLaneBatch sliced(program, kLanes);
  support::Rng rng = support::Rng::stream(0xC4A0, 19);
  for (std::size_t l = 0; l < kLanes; ++l) {
    std::size_t done = 0;
    while (done < traces[l].size()) {
      const std::size_t cut = done + 1 + rng.below(traces[l].size() - done);
      sliced.observe_batch(l, traces[l].data() + done,
                           traces[l].data() + cut);
      done = cut;
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    const sim::Time end =
        traces[l].empty() ? sim::Time::zero() : traces[l].back().time;
    lockstep.finish(l, end);
    sliced.finish(l, end);
    EXPECT_EQ(lockstep.verdict(l), sliced.verdict(l)) << "lane " << l;
    EXPECT_EQ(lockstep.stats(l).ops, sliced.stats(l).ops) << "lane " << l;
    EXPECT_EQ(lockstep.violation(l).has_value(),
              sliced.violation(l).has_value())
        << "lane " << l;
  }
}

TEST(MonBytecodeLanes, MidWaveRestoreResumesLockstepBitForBit) {
  // The campaign's wave shape: each lane is either reset fresh or restored
  // from a snapshot taken at a random cut of its own trace, then the whole
  // wave resumes in block-lockstep over per-lane suffixes.
  // Every lane — restored or not — must land on the same bytes as a solo
  // VmMonitor that ran its full trace without interruption.  Snapshots are
  // written by a *solo* monitor and restored into a *lane*, crossing the
  // shared format exactly the way a checkpoint-ladder rung does.
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    const auto program = compile_vm(p);

    for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{8},
                                    std::size_t{13}}) {
      VmLaneBatch lanes(program, width);
      for (std::uint64_t round = 0; round < 4; ++round) {
        support::Rng rng =
            support::Rng::stream(0x5A7E + round * 131 + width, 7);
        std::vector<spec::Trace> traces;
        std::vector<std::size_t> starts;
        std::vector<std::unique_ptr<VmMonitor>> solos;
        for (std::size_t l = 0; l < width; ++l) {
          traces.push_back(fuzz_trace(names, rng));
          auto solo = std::make_unique<VmMonitor>(program);
          const spec::Trace& t = traces.back();
          if (!t.empty() && rng.below(2) != 0) {
            // Restored lane: the solo runs a random prefix, a snapshot of
            // it primes the lane, and the lane owes only the suffix.
            const std::size_t cut = 1 + rng.below(t.size());
            for (std::size_t i = 0; i < cut; ++i) {
              solo->observe(t[i].name, t[i].time);
            }
            Snapshot snap;
            solo->snapshot(snap);
            lanes.restore(l, snap);
            starts.push_back(cut);
          } else {
            lanes.reset(l);
            starts.push_back(0);
          }
          solos.push_back(std::move(solo));
        }
        std::vector<const spec::Trace*> ptrs;
        for (const auto& t : traces) ptrs.push_back(&t);

        lanes.run(ptrs, starts);

        for (std::size_t l = 0; l < width; ++l) {
          const spec::Trace& t = traces[l];
          for (std::size_t i = starts[l]; i < t.size(); ++i) {
            solos[l]->observe(t[i].name, t[i].time);
          }
          const sim::Time end =
              t.empty() ? sim::Time::zero() : t.back().time;
          lanes.finish(l, end);
          solos[l]->finish(end);
          const std::string what = std::string(c.label) + " width " +
                                   std::to_string(width) + " round " +
                                   std::to_string(round) + " lane " +
                                   std::to_string(l) + " start " +
                                   std::to_string(starts[l]);
          EXPECT_EQ(lanes.verdict(l), solos[l]->verdict()) << what;
          ASSERT_EQ(lanes.violation(l).has_value(),
                    solos[l]->violation().has_value())
              << what;
          if (lanes.violation(l) && solos[l]->violation()) {
            EXPECT_EQ(lanes.violation(l)->event_ordinal,
                      solos[l]->violation()->event_ordinal)
                << what;
            EXPECT_EQ(lanes.violation(l)->reason,
                      solos[l]->violation()->reason)
                << what;
          }
          EXPECT_EQ(lanes.stats(l).ops, solos[l]->stats().ops) << what;
          EXPECT_EQ(lanes.stats(l).events, solos[l]->stats().events) << what;
          EXPECT_EQ(lanes.stats(l).max_ops_per_event,
                    solos[l]->stats().max_ops_per_event)
              << what;
        }
      }
    }
  }
}

TEST(MonBytecodeLanes, PartialWavesLeaveUnlistedLanesUntouched) {
  // run(traces, starts) with fewer traces than lanes — the campaign's
  // trailing flush — steps only the listed lanes; the remaining frames
  // must stay exactly as reset() left them, ready for the next wave.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const auto names = names_of(p, ab);
  const auto program = compile_vm(p);

  constexpr std::size_t kLanes = 8;
  VmLaneBatch lanes(program, kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) lanes.reset(l);
  // reset() charges the activation ops a fresh monitor carries; that is
  // the exact state an untouched lane must still show after the wave.
  const std::uint64_t ops_after_reset = lanes.stats(0).ops;

  constexpr std::size_t kUsed = 3;
  support::Rng rng = support::Rng::stream(0xF111, 11);
  std::vector<spec::Trace> traces;
  for (std::size_t l = 0; l < kUsed; ++l) {
    traces.push_back(fuzz_trace(names, rng));
  }
  std::vector<const spec::Trace*> ptrs;
  for (const auto& t : traces) ptrs.push_back(&t);
  const std::vector<std::size_t> starts(kUsed, 0);

  lanes.run(ptrs, starts);

  for (std::size_t l = 0; l < kUsed; ++l) {
    EXPECT_EQ(lanes.stats(l).events, traces[l].size()) << "lane " << l;
  }
  for (std::size_t l = kUsed; l < kLanes; ++l) {
    EXPECT_EQ(lanes.stats(l).events, 0u) << "lane " << l;
    EXPECT_EQ(lanes.stats(l).ops, ops_after_reset) << "lane " << l;
    EXPECT_EQ(lanes.verdict(l), Verdict::Monitoring) << "lane " << l;
  }
}

// --- retirement fast-forward ------------------------------------------------
//
// Once a frame retires (Violated, or Holds for a non-repeated antecedent)
// vm_run_batch counts the rest of the slice in one step instead of
// executing retire.if per event.  Every trace below retires part-way, with
// a tail longer than one lockstep block; batched execution must land on
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

TEST(MonBytecodeRetire, LaneRunWithPerLaneStartsRetiringMidSliceEqualsSolo) {
  // The campaign's wave shape: each lane restored from a solo monitor's
  // snapshot at its own start — before or after the retirement point —
  // then the wave advances in block-lockstep over per-lane suffixes.
  constexpr std::size_t kLanes = 8;
  std::size_t mid_slice = 0;
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto program = compile_vm(p);
    VmLaneBatch lanes(program, kLanes);
    for (std::uint64_t round = 0; round < 4; ++round) {
      support::Rng rng = support::Rng::stream(0x1A7E + round, 29);
      std::vector<spec::Trace> traces;
      std::vector<std::size_t> starts;
      std::vector<std::unique_ptr<VmMonitor>> solos;
      for (std::size_t l = 0; l < kLanes; ++l) {
        traces.push_back(loom::testing::retiring_trace(
            p, ab, 0x1A7E + round * kLanes + l, 150));
        const spec::Trace& t = traces.back();
        // Even lanes start at or before the retiring event, odd lanes
        // after it (a rung taken from an already-retired frame).
        std::size_t retire_at = t.size();
        {
          VmMonitor probe(program);
          for (std::size_t i = 0; i < t.size() && retire_at == t.size();
               ++i) {
            probe.observe(t[i].name, t[i].time);
            if (retired(probe.verdict())) retire_at = i;
          }
        }
        const std::size_t start =
            l % 2 == 0 || retire_at == t.size()
                ? rng.below(std::min(retire_at, t.size()) + 1)
                : retire_at + 1 + rng.below(t.size() - retire_at);
        auto solo = std::make_unique<VmMonitor>(program);
        for (std::size_t i = 0; i < start; ++i) {
          solo->observe(t[i].name, t[i].time);
        }
        if (start == 0) {
          lanes.reset(l);
        } else {
          Snapshot snap;
          solo->snapshot(snap);
          lanes.restore(l, snap);
        }
        starts.push_back(start);
        solos.push_back(std::move(solo));
      }
      std::vector<const spec::Trace*> ptrs;
      for (const auto& t : traces) ptrs.push_back(&t);

      lanes.run(ptrs, starts);

      for (std::size_t l = 0; l < kLanes; ++l) {
        const spec::Trace& t = traces[l];
        bool was_retired = retired(solos[l]->verdict());
        for (std::size_t i = starts[l]; i < t.size(); ++i) {
          solos[l]->observe(t[i].name, t[i].time);
          if (!was_retired && retired(solos[l]->verdict())) {
            was_retired = true;
            if (i + 1 < t.size()) ++mid_slice;
          }
        }
        const std::string what = std::string(c.label) + " round " +
                                 std::to_string(round) + " lane " +
                                 std::to_string(l) + " start " +
                                 std::to_string(starts[l]);
        // Compared before finish(): finish may latch a deadline violation
        // at the ordinal, which is exactly what must already agree.
        Snapshot lane_snap;
        lanes.snapshot(l, lane_snap);
        Snapshot solo_snap;
        solos[l]->snapshot(solo_snap);
        EXPECT_TRUE(loom::testing::snapshots_equal(lane_snap, solo_snap))
            << what;
        const sim::Time end = t.empty() ? sim::Time::zero() : t.back().time;
        lanes.finish(l, end);
        solos[l]->finish(end);
        EXPECT_EQ(lanes.verdict(l), solos[l]->verdict()) << what;
        ASSERT_EQ(lanes.violation(l).has_value(),
                  solos[l]->violation().has_value())
            << what;
        if (lanes.violation(l)) {
          EXPECT_EQ(lanes.violation(l)->event_ordinal,
                    solos[l]->violation()->event_ordinal)
              << what;
          EXPECT_EQ(lanes.violation(l)->reason, solos[l]->violation()->reason)
              << what;
        }
        EXPECT_EQ(lanes.stats(l).ops, solos[l]->stats().ops) << what;
        EXPECT_EQ(lanes.stats(l).events, solos[l]->stats().events) << what;
        EXPECT_EQ(lanes.stats(l).max_ops_per_event,
                  solos[l]->stats().max_ops_per_event)
            << what;
      }
    }
  }
  EXPECT_GT(mid_slice, 30u);
}

// --- compact checkpoint rungs ----------------------------------------------
//
// vm_save_rung / vm_load_rung are the checkpoint ladder's rung format for
// Vm monitors: raw word and byte copies of the frame, with no strings.  A
// loaded rung must continue exactly like the Snapshot restore it replaces
// and like the uninterrupted run — into a frame that held anything before.

// Complete frame state of a monitor (or lane) as a Snapshot: stats,
// verdict, violation, every range reason and the event ordinal.
Snapshot frame_of(const Monitor& m) {
  Snapshot s;
  m.snapshot(s);
  return s;
}

Snapshot frame_of(const VmLaneBatch& lanes, std::size_t lane) {
  Snapshot s;
  lanes.snapshot(lane, s);
  return s;
}

// Non-empty strings in a VM snapshot: the range reasons plus the
// violation's reason.
std::size_t reasons_in(const Snapshot& s) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < s.string_count(); ++i) {
    if (!s.string_at(i).empty()) ++n;
  }
  return n;
}

// Drives `observe` over fuzzed traces until the frame holds a violation
// latched from a range error — so it carries a violation and at least one
// range reason — the dirtiest state a pooled frame can be drawn in.
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
        [&] { return frame_of(dirty); }, [&] { dirty.reset(); });
    VmLaneBatch lanes(program, 3);
    make_dirty(
        names, 0xD1E8,
        [&](const spec::Trace& t) {
          lanes.observe_batch(1, t.data(), t.data() + t.size());
        },
        [&] { return frame_of(lanes, 1); }, [&] { lanes.reset(1); });

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

        // Saving is a pure function of the state: a lane that ran the same
        // prefix writes the same words, padding included.
        {
          VmLaneBatch twin(program, 2);
          twin.observe_batch(1, t.data(), t.data() + cut);
          std::vector<std::uint64_t> lane_rung(words, 0);
          ASSERT_TRUE(twin.save_rung(1, lane_rung.data())) << what;
          EXPECT_EQ(lane_rung, rung) << what;
        }

        // Load into the dirty monitor and the dirty lane: both now hold
        // exactly the state at the cut, reasons and violation cleared.
        VmMonitor loaded(program);
        loaded.restore(frame_of(dirty));
        ASSERT_TRUE(loaded.violation().has_value()) << what;
        loaded.load_rung(rung.data());
        EXPECT_TRUE(loom::testing::snapshots_equal(frame_of(loaded), at_cut))
            << what << " [monitor load]";
        lanes.restore(2, frame_of(lanes, 1));  // lane 2: a dirty copy
        lanes.load_rung(2, rung.data());
        EXPECT_TRUE(
            loom::testing::snapshots_equal(frame_of(lanes, 2), at_cut))
            << what << " [lane load]";

        // Continue all three: the rung-loaded monitor and lane, and a
        // Snapshot-restored monitor, must all finish like the whole run.
        VmMonitor restored(program);
        restored.restore(at_cut);
        loaded.observe_batch(t.data() + cut, t.data() + t.size());
        restored.observe_batch(t.data() + cut, t.data() + t.size());
        lanes.observe_batch(2, t.data() + cut, t.data() + t.size());
        loaded.finish(end);
        restored.finish(end);
        lanes.finish(2, end);
        expect_same_frame(loaded, whole, frame_of(loaded), what + " [load]");
        expect_same_frame(restored, whole, frame_of(restored),
                          what + " [restore]");
        EXPECT_TRUE(loom::testing::snapshots_equal(frame_of(lanes, 2),
                                                   frame_of(whole)))
            << what << " [lane]";
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
  EXPECT_FALSE(m.save_rung(rung.data()));
  VmLaneBatch lanes(program, 2);
  lanes.observe(0, ab.name("i"), sim::Time::ns(10));
  ASSERT_EQ(lanes.verdict(0), Verdict::Violated);
  EXPECT_FALSE(lanes.save_rung(0, rung.data()));
  EXPECT_TRUE(lanes.save_rung(1, rung.data()));

  // A deadline violation latches no range reason: the violation alone
  // must refuse the rung.
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
  EXPECT_EQ(reasons_in(frame_of(late)), 1u);  // the violation's own
  EXPECT_FALSE(late.save_rung(timed_rung.data()));
}

// The rung after (k + 1)·stride events of `t`, as a Snapshot of a monitor
// that observed exactly that prefix.
Snapshot state_after(std::unique_ptr<Monitor> m, const spec::Trace& t,
                     std::size_t events) {
  m->observe_batch(t.data(), t.data() + events);
  return frame_of(*m);
}

TEST(MonVmRung, LadderStopsRecordingAtTheFirstRefusedRung) {
  // (n << i, true): every i needs its own preceding n.  The hand-built
  // trace alternates n i, but its ninth event (ordinal 8) is a second i in
  // a row: the monitor violates there.  At stride 2 a Vm ladder keeps the
  // four rungs before the violation and stops; a Drct ladder, whose
  // Snapshot rungs can hold a violation, keeps all ten.
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

  VmMonitor recorder(program);
  CheckpointLadder vm_ladder;
  vm_ladder.record(recorder, t, kStride);
  EXPECT_TRUE(vm_ladder.compact());
  EXPECT_EQ(vm_ladder.count(), 4u);

  auto drct_recorder = make_monitor(p);
  CheckpointLadder drct_ladder;
  drct_ladder.record(*drct_recorder, t, kStride);
  EXPECT_FALSE(drct_ladder.compact());
  EXPECT_EQ(drct_ladder.count(), t.size() / kStride);

  // Every recorded rung restores the state after its prefix, into a dirty
  // monitor and a dirty lane alike; re-recording replaces the content.
  VmLaneBatch lanes(program, 2);
  lanes.observe_batch(1, t.data(), t.data() + t.size());  // violated lane
  VmMonitor target(program);
  target.observe_batch(t);  // violated monitor
  for (std::size_t k = 0; k < vm_ladder.count(); ++k) {
    const Snapshot want = state_after(std::make_unique<VmMonitor>(program), t,
                                      (k + 1) * kStride);
    vm_ladder.restore_into(k, target);
    EXPECT_TRUE(loom::testing::snapshots_equal(frame_of(target), want))
        << "rung " << k;
    vm_ladder.restore_into(k, lanes, 1);
    EXPECT_TRUE(loom::testing::snapshots_equal(frame_of(lanes, 1), want))
        << "lane rung " << k;
  }
  for (std::size_t k = 0; k < drct_ladder.count(); ++k) {
    auto drct = make_monitor(p);
    drct_ladder.restore_into(k, *drct);
    EXPECT_TRUE(loom::testing::snapshots_equal(
        frame_of(*drct), state_after(make_monitor(p), t, (k + 1) * kStride)))
        << "drct rung " << k;
  }

  // A valid prefix alone records every rung; the tail past the last full
  // stride has none.
  const spec::Trace valid(t.begin(), t.begin() + 7);
  recorder.reset();
  vm_ladder.record(recorder, valid, kStride);
  EXPECT_EQ(vm_ladder.count(), 3u);
  vm_ladder.restore_into(2, target);
  EXPECT_TRUE(loom::testing::snapshots_equal(
      frame_of(target),
      state_after(std::make_unique<VmMonitor>(program), valid, 6)));
}

}  // namespace
}  // namespace loom::mon
