// Monitor::reset() reuse contract: a reset-reused instance is
// indistinguishable from a freshly constructed one — same verdict, same
// violation report, same Figure-6 stats, same space accounting — over
// fuzzed traces, for every monitor kind (Drct antecedent repeated and not,
// Drct timed, ViaPSL clause network) and for instances stamped from a
// mon::CompiledProperty.  The campaign engine's monitor pool leans on
// this: one instance per shard, reset between units and mutants, must be
// byte-identical to the reference loop's fresh instance per unit.  Plus
// the replay host: a reset MonitorModule replays like a fresh one.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mon/compiled.hpp"
#include "mon/monitors.hpp"
#include "psl/clause_monitor.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"
#include "testing.hpp"

namespace loom::mon {
namespace {

using MonitorFactory = std::function<std::unique_ptr<Monitor>()>;

// A fuzzed trace: events drawn from the property's names plus two noise
// names, at strictly increasing times with jittered gaps.  Deterministic —
// the Rng is seeded per trial.
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

void feed(Monitor& m, const spec::Trace& t) {
  for (const auto& ev : t) m.observe(ev.name, ev.time);
  m.finish(t.empty() ? sim::Time::zero() : t.back().time);
}

void expect_same_outcome(Monitor& fresh, Monitor& reused,
                         const std::string& what) {
  EXPECT_EQ(fresh.verdict(), reused.verdict()) << what;
  EXPECT_EQ(fresh.violation().has_value(), reused.violation().has_value())
      << what;
  if (fresh.violation() && reused.violation()) {
    EXPECT_EQ(fresh.violation()->event_ordinal,
              reused.violation()->event_ordinal)
        << what;
    EXPECT_EQ(fresh.violation()->time, reused.violation()->time) << what;
    EXPECT_EQ(fresh.violation()->name, reused.violation()->name) << what;
    EXPECT_EQ(fresh.violation()->reason, reused.violation()->reason) << what;
    EXPECT_EQ(fresh.violation()->text(), reused.violation()->text()) << what;
  }
  EXPECT_EQ(fresh.stats().ops, reused.stats().ops) << what;
  EXPECT_EQ(fresh.stats().events, reused.stats().events) << what;
  EXPECT_EQ(fresh.stats().max_ops_per_event, reused.stats().max_ops_per_event)
      << what;
  EXPECT_EQ(fresh.space_bits(), reused.space_bits()) << what;
}

// For every trial: feed a first fuzzed trace into the reused instance,
// reset it, then run a second fuzzed trace through both it and a fresh
// instance.  Whatever the first trace left behind — retirement, armed
// obligations, half-recognized fragments, open lexer blocks — reset() must
// erase without a trace.
void check_reset_reuse(const MonitorFactory& make,
                       const std::vector<spec::Name>& names,
                       const char* label) {
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    support::Rng rng = support::Rng::stream(0xC0FFEE + trial, 7);
    const spec::Trace first = fuzz_trace(names, rng);
    const spec::Trace second = fuzz_trace(names, rng);

    auto reused = make();
    feed(*reused, first);
    reused->reset();

    auto fresh = make();
    feed(*fresh, second);
    feed(*reused, second);

    expect_same_outcome(*fresh, *reused,
                        std::string(label) + " trial " +
                            std::to_string(trial));
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

TEST(ResetReuse, DrctMonitorsFreshEqualsReset) {
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    check_reset_reuse([&] { return make_monitor(p); }, names, c.label);
  }
}

TEST(ResetReuse, ViaPslMonitorsFreshEqualsReset) {
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    const auto encoding =
        std::make_shared<const psl::Encoding>(psl::encode(p, 2000000, &ab));
    check_reset_reuse(
        [&] { return std::make_unique<psl::ClauseMonitor>(encoding); }, names,
        c.label);
  }
}

TEST(ResetReuse, CompiledInstancesFreshEqualsReset) {
  // The campaign stamps instances from shared translate-once artifacts;
  // the reset contract must hold for those exactly as for stand-alone
  // construction, on both backends.
  for (const auto& c : kCases) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(c.source, ab);
    const auto names = names_of(p, ab);
    CompileOptions opt;
    opt.with_viapsl_artifact = true;
    const CompiledProperty compiled = CompiledProperty::compile(p, ab, opt);
    check_reset_reuse([&] { return compiled.instantiate(Backend::Drct); },
                      names, c.label);
    check_reset_reuse([&] { return compiled.instantiate(Backend::ViaPSL); },
                      names, c.label);
    // The VM program is only built when the compile targets it.
    CompileOptions vm_opt;
    vm_opt.backend = Backend::Vm;
    const CompiledProperty vm = CompiledProperty::compile(p, ab, vm_opt);
    check_reset_reuse([&] { return vm.instantiate(Backend::Vm); }, names,
                      c.label);
  }
}

// --- MonitorModule reset ≡ fresh module -----------------------------------

TEST(MonitorModuleReset, ResetHostReplaysLikeAFreshOne) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(n << i, true)", ab);
  // The canonical violation: the trigger before any pattern round.
  const spec::Trace bad = loom::testing::trace_of("i n", ab);
  const auto compiled = CompiledProperty::compile(p, ab);

  // Fresh host per replay: the baseline.
  auto reference = compiled.instantiate();
  std::size_t fresh_callbacks = 0;
  for (int i = 0; i < 3; ++i) {
    sim::Scheduler sched;
    MonitorModule module(sched, "replay", *reference, ab);
    module.on_violation([&](const Violation&) { ++fresh_callbacks; });
    reference->reset();
    module.observe_batch(bad, MonitorModule::BatchPolicy::ReplayAll);
    reference->finish(bad.back().time);
  }
  const auto fresh_verdict = reference->verdict();

  // One host, reset between replays, watchdogs off (never pumped anyway).
  auto pooled = compiled.instantiate();
  sim::Scheduler sched;
  MonitorModule module(sched, "replay", *pooled, ab);
  module.set_arm_watchdogs(false);
  std::size_t pooled_callbacks = 0;
  module.on_violation([&](const Violation&) { ++pooled_callbacks; });
  for (int i = 0; i < 3; ++i) {
    module.reset();
    pooled->reset();
    module.observe_batch(bad, MonitorModule::BatchPolicy::ReplayAll);
    pooled->finish(bad.back().time);
  }

  EXPECT_EQ(fresh_callbacks, 3u);
  EXPECT_EQ(pooled_callbacks, 3u);  // reset() re-arms the callback latch
  EXPECT_EQ(pooled->verdict(), fresh_verdict);
  EXPECT_EQ(pooled->stats().ops, reference->stats().ops);
}

}  // namespace
}  // namespace loom::mon
