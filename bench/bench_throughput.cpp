// Runtime throughput (google-benchmark): events/second sustained by the
// Drct monitors vs the materialized ViaPSL clause monitors, plus parser
// and stimuli-generation rates.  Complements Figure 6's abstract op counts
// with wall-clock numbers on this host.
//
// The campaign benchmarks additionally print heap-allocation counters
// (allocs/unit, allocs/mutant) from support::AllocCounter — this binary
// links the counting operator new/delete (src/support/alloc_hooks.cpp), so
// the zero-allocation steady state is a printed number a regression moves,
// not folklore.
#include <benchmark/benchmark.h>

#include <chrono>

#include "abv/campaign.hpp"
#include "abv/stimuli.hpp"
#include "wire/payload.hpp"
#include "wire/process.hpp"
#include "wire/wire.hpp"
#include "bench_json.hpp"
#include "mon/bytecode.hpp"
#include "mon/monitors.hpp"
#include "mon/vm.hpp"
#include "psl/clause_monitor.hpp"
#include "sim/scheduler.hpp"
#include "spec/parser.hpp"
#include "support/alloc_counter.hpp"

namespace {

using namespace loom;

// Per-iteration tally for the campaign loops: heap allocations (reported
// per work unit — a seed's valid phase or one seed×kind mutation batch —
// and per mutant attempt; thread-local counters only see the serial
// campaigns' own thread, which is exactly the steady-state loop being
// measured), wall time per unit, and the engine diagnostics from
// CampaignResult summed across iterations.  report() emits the stable
// counter schema the tracked BENCH_*.json baselines record — names are
// API (tools/bench_compare.py thresholds them by name); every ratio
// guards its denominator via bench::safe_ratio, so a zero-work shape
// reports 0, never NaN.
struct CampaignTally {
  std::uint64_t allocs = 0;
  std::uint64_t units = 0;
  std::uint64_t mutants = 0;
  std::uint64_t monitor_events = 0;
  double seconds = 0.0;
  std::uint64_t trace_cache_hits = 0;
  std::uint64_t trace_cache_misses = 0;
  std::uint64_t checkpoint_hits = 0;
  std::uint64_t events_skipped = 0;
  bool backend_viapsl = false;
  bool backend_vm = false;

  /// Times one campaign run and folds its diagnostics into the tally.
  template <typename Run>
  auto timed(Run&& run) {
    const auto begin = std::chrono::steady_clock::now();
    auto result = run();
    seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
    return result;
  }

  void absorb(const abv::CampaignResult& r) {
    monitor_events += r.monitor_stats.events;
    trace_cache_hits += r.trace_cache_hits;
    trace_cache_misses += r.trace_cache_misses;
    checkpoint_hits += r.checkpoint_hits;
    events_skipped += r.events_skipped;
    backend_viapsl = r.compile_stats.backend_chosen == mon::Backend::ViaPSL;
    backend_vm = r.compile_stats.backend_chosen == mon::Backend::Vm;
  }

  void report(benchmark::State& state) const {
    using bench::safe_ratio;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    if (units != 0) {
      state.counters["wall/unit"] =
          benchmark::Counter(safe_ratio(seconds * 1e9, d(units)));  // ns
      if (support::AllocCounter::hooks_linked()) {
        state.counters["allocs/unit"] =
            benchmark::Counter(safe_ratio(d(allocs), d(units)));
        if (mutants != 0) {
          state.counters["allocs/mutant"] =
              benchmark::Counter(safe_ratio(d(allocs), d(mutants)));
        }
      }
    }
    state.counters["trace_cache_hit_rate"] = benchmark::Counter(safe_ratio(
        d(trace_cache_hits), d(trace_cache_hits + trace_cache_misses)));
    state.counters["checkpoint_hits"] = benchmark::Counter(d(checkpoint_hits));
    state.counters["events_skipped"] = benchmark::Counter(d(events_skipped));
    // A restored rung carries its prefix's stats, so monitor_events
    // already counts the skipped events (CampaignResult::
    // diagnostic_counters defines the ratio the same way).
    state.counters["skip_ratio"] = benchmark::Counter(
        safe_ratio(d(events_skipped), d(monitor_events)));
    state.counters["backend_viapsl"] =
        benchmark::Counter(backend_viapsl ? 1.0 : 0.0);
    state.counters["backend_vm"] = benchmark::Counter(backend_vm ? 1.0 : 0.0);
  }
};

struct Fixture {
  spec::Alphabet ab;
  spec::Property property;
  spec::Trace trace;

  explicit Fixture(const char* source, std::size_t rounds = 64)
      : property(parse(source)) {
    support::Rng rng(42);
    abv::StimuliOptions opt;
    opt.rounds = rounds;
    trace = abv::generate_valid(property, ab, rng, opt);
  }

  spec::Property parse(const char* source) {
    support::DiagnosticSink sink;
    auto p = spec::parse_property(source, ab, sink);
    if (!p) throw std::runtime_error(sink.to_string());
    return *p;
  }
};

const char* kConfig[] = {
    "(n << i, true)",
    "(({n1, n2, n3, n4}, &) << i, false)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(n1 => n2 < n3 < n4, 1ms)",
};

void BM_DrctMonitor(benchmark::State& state) {
  Fixture fx(kConfig[state.range(0)]);
  auto monitor = mon::make_monitor(fx.property);
  for (auto _ : state) {
    monitor->reset();
    for (const auto& ev : fx.trace) monitor->observe(ev.name, ev.time);
    benchmark::DoNotOptimize(monitor->verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetLabel(kConfig[state.range(0)]);
}
BENCHMARK(BM_DrctMonitor)->DenseRange(0, 3);

void BM_VmMonitor(benchmark::State& state) {
  // The same trace replay as BM_DrctMonitor through the bytecode VM: one
  // compiled program, one frame, reset-reused per iteration.  Verdicts and
  // the Figure-6 op counts are bit-identical to the Drct row by contract
  // (tests/mon_bytecode_test.cpp); the delta is pure dispatch mechanics.
  Fixture fx(kConfig[state.range(0)]);
  mon::VmMonitor monitor(mon::compile_vm(fx.property));
  for (auto _ : state) {
    monitor.reset();
    for (const auto& ev : fx.trace) monitor.observe(ev.name, ev.time);
    benchmark::DoNotOptimize(monitor.verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetLabel(kConfig[state.range(0)]);
}
BENCHMARK(BM_VmMonitor)->DenseRange(0, 3);

void BM_ViaPslMonitor(benchmark::State& state) {
  Fixture fx(kConfig[state.range(0)]);
  psl::ClauseMonitor monitor(psl::encode(fx.property));
  for (auto _ : state) {
    monitor.reset();
    for (const auto& ev : fx.trace) monitor.observe(ev.name, ev.time);
    benchmark::DoNotOptimize(monitor.verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetLabel(kConfig[state.range(0)]);
}
BENCHMARK(BM_ViaPslMonitor)->DenseRange(0, 3);

void BM_ViaPslWideRange(benchmark::State& state) {
  // Materialized ViaPSL with a growing range width: the per-event cost of
  // the clause network grows quadratically until materialization becomes
  // impossible (the Figure 6 [100,60K] rows).
  const auto width = static_cast<std::uint32_t>(state.range(0));
  const std::string source =
      "(n[1," + std::to_string(width) + "] << i, true)";
  Fixture fx(source.c_str(), 8);
  psl::ClauseMonitor monitor(psl::encode(fx.property));
  for (auto _ : state) {
    monitor.reset();
    for (const auto& ev : fx.trace) monitor.observe(ev.name, ev.time);
    benchmark::DoNotOptimize(monitor.verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetComplexityN(width);
}
BENCHMARK(BM_ViaPslWideRange)->RangeMultiplier(4)->Range(1, 256);

void BM_DrctWideRange(benchmark::State& state) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  const std::string source =
      "(n[1," + std::to_string(width) + "] << i, true)";
  Fixture fx(source.c_str(), 8);
  auto monitor = mon::make_monitor(fx.property);
  for (auto _ : state) {
    monitor->reset();
    for (const auto& ev : fx.trace) monitor->observe(ev.name, ev.time);
    benchmark::DoNotOptimize(monitor->verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetComplexityN(width);
}
BENCHMARK(BM_DrctWideRange)->RangeMultiplier(4)->Range(1, 256);

void BM_CampaignSharded(benchmark::State& state) {
  // The full Fig. 1 loop on the sharded engine; the argument is the thread
  // count (1 = serial baseline).  Deterministic across the sweep, so the
  // runs are directly comparable.
  Fixture fx(kConfig[2], 4);
  abv::CampaignOptions opt;
  opt.seeds = 8;
  opt.stimuli.rounds = 4;
  opt.mutants_per_kind = 8;
  opt.threads = static_cast<std::size_t>(state.range(0));
  opt.shard_seeds = 1;  // one seed per shard
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const abv::CampaignResult r =
        tally.timed([&] { return abv::run_campaign(fx.property, fx.ab, opt); });
    tally.allocs += scope.allocs();  // workers' allocations not included
    tally.units += opt.seeds * 6;
    tally.absorb(r);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  tally.report(state);
  state.SetLabel("threads=" + std::to_string(opt.threads));
}
BENCHMARK(BM_CampaignSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_CampaignMutationHeavy(benchmark::State& state) {
  // Mutation-heavy campaign in two gears, numbered as in the recorded
  // baselines: 2 is the engine under its default options (per-worker
  // scratch, per-shard monitor pools, mutants as edits), 3 the same
  // engine forced onto the bytecode VM backend.  Both produce the
  // reference loop's mutation results (campaign_reference_diff_test,
  // whose backend grid includes Vm); only the wall clock and the
  // allocation counters differ, and the VM gear trades the Drct monitors'
  // virtual per-event stepping for the flat dispatch loop.  allocs/mutant
  // is the campaign's per-campaign and per-shard allocations (pooled
  // instances, coverage, results) spread over its mutants: the per-mutant
  // loop itself
  // allocates nothing once warm (AllocCounter.
  // WarmedMutantLoopIsAllocationFree), so the figure falls as
  // mutants_per_kind grows.
  const int gear = static_cast<int>(state.range(0));
  Fixture fx(kConfig[2], 4);
  abv::CampaignOptions opt;
  opt.seeds = 64;
  opt.stimuli.rounds = 16;  // long traces: regeneration is the hot path
  opt.mutants_per_kind = 4;
  opt.threads = 1;
  if (gear >= 3) opt.backend = mon::Backend::Vm;
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const abv::CampaignResult r =
        tally.timed([&] { return abv::run_campaign(fx.property, fx.ab, opt); });
    tally.allocs += scope.allocs();
    tally.units += opt.seeds * 6;
    tally.mutants += opt.seeds * 5 * opt.mutants_per_kind;
    tally.absorb(r);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  tally.report(state);
  state.SetLabel(gear == 2 ? "+scratch arenas" : "+vm backend");
}
BENCHMARK(BM_CampaignMutationHeavy)->Arg(2)->Arg(3)->UseRealTime();

void BM_CampaignIncremental(benchmark::State& state) {
  // Checkpointed, suffix-only mutant replay vs full replay on the
  // mutation-heavy, long-trace shape (the BM_CampaignMutationHeavy
  // workload where per-mutant cost is replay-dominated).  Gear 0 (stride
  // 0) replays every mutant from event 0; gear 1 (stride 32) restores the
  // floor checkpoint and replays only [floor, end).  Both produce the
  // reference loop's results (campaign_reference_diff_test); the wall
  // clock and the printed
  // skip ratio — prefix events not re-stepped over the events the
  // monitors would have stepped in full — are the win.  The timed
  // property makes StallDeadline mutants (long preserved prefixes) part
  // of the mix, where the suffix is shortest.
  const bool incremental = state.range(0) != 0;
  Fixture fx(kConfig[3], 48);
  abv::CampaignOptions opt;
  opt.seeds = 24;
  opt.stimuli.rounds = 32;  // long traces: prefix re-evaluation dominates
  opt.mutants_per_kind = 8;
  opt.threads = 1;
  opt.checkpoint_stride = incremental ? 32 : 0;
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const abv::CampaignResult r =
        tally.timed([&] { return abv::run_campaign(fx.property, fx.ab, opt); });
    tally.allocs += scope.allocs();
    tally.units += opt.seeds * 6;
    tally.mutants += opt.seeds * 5 * opt.mutants_per_kind;
    tally.absorb(r);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  // The tally emits skip_ratio on both gears (0 for full replay) with a
  // guarded denominator, so the counter schema is identical across the
  // sweep and a zero-mutant shape can never print nan.
  tally.report(state);
  state.SetLabel(incremental ? "incremental (suffix-only) replay"
                             : "full replay");
}
BENCHMARK(BM_CampaignIncremental)->Arg(0)->Arg(1)->UseRealTime();

void BM_CampaignCompiledPlans(benchmark::State& state) {
  // The translate-once engine on the mutation-heavy, stamping-heavy shape:
  // one plan per property, instances stamped from it and reset-reused
  // across six units per seed and every killed mutant.  Arg 1 keeps the
  // recorded baseline's name.
  Fixture fx(kConfig[2], 4);
  abv::CampaignOptions opt;
  opt.seeds = 48;
  opt.stimuli.rounds = 4;
  opt.mutants_per_kind = 24;  // mutation-heavy: stamping dominates
  opt.threads = 1;
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const abv::CampaignResult r =
        tally.timed([&] { return abv::run_campaign(fx.property, fx.ab, opt); });
    tally.allocs += scope.allocs();
    tally.units += opt.seeds * 6;
    tally.mutants += opt.seeds * 5 * opt.mutants_per_kind;
    tally.absorb(r);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  tally.report(state);
  state.SetLabel("compiled plans");
}
BENCHMARK(BM_CampaignCompiledPlans)->Arg(1)->UseRealTime();

void BM_CampaignManyProperties(benchmark::State& state) {
  // The many-property shape: run_campaigns over a batch, which pays
  // exactly one translation per property per campaign.  Arg 1 keeps the
  // recorded baseline's name.
  spec::Alphabet ab;
  std::vector<spec::Property> props;
  for (const char* source : kConfig) {
    support::DiagnosticSink sink;
    auto p = spec::parse_property(source, ab, sink);
    if (!p) throw std::runtime_error(sink.to_string());
    props.push_back(*p);
  }
  std::vector<const spec::Property*> ptrs;
  for (const auto& p : props) ptrs.push_back(&p);
  abv::CampaignOptions opt;
  opt.seeds = 16;
  opt.stimuli.rounds = 4;
  opt.mutants_per_kind = 12;
  opt.threads = 1;
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const auto results =
        tally.timed([&] { return abv::run_campaigns(ptrs, ab, opt); });
    tally.allocs += scope.allocs();
    tally.units += opt.seeds * 6 * ptrs.size();
    for (const auto& r : results) tally.absorb(r);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  tally.report(state);
  state.SetLabel("compiled plans");
}
BENCHMARK(BM_CampaignManyProperties)->Arg(1)->UseRealTime();

#if LOOM_WIRE_HAS_PROCESS
void BM_WorkerSupervision(benchmark::State& state) {
  // Prices the supervised drain (poll-multiplexed, nonblocking readers,
  // per-frame deadlines) on a clean fork-mode cross-process campaign with
  // a deadline armed: what the supervision machinery costs when nothing
  // goes wrong.  Arg 1 keeps the recorded baseline's name.
  Fixture fx(kConfig[2], 4);
  abv::CampaignOptions opt;
  opt.seeds = 8;
  opt.stimuli.rounds = 4;
  opt.mutants_per_kind = 8;
  opt.threads = 1;
  opt.shard_seeds = 1;  // one seed per shard
  opt.workers = 2;
  opt.worker_timeout_ms = 10000;
  CampaignTally tally;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    const abv::CampaignResult r =
        tally.timed([&] { return abv::run_campaign(fx.property, fx.ab, opt); });
    tally.allocs += scope.allocs();  // workers' allocations not included
    tally.units += opt.seeds * 6;
    tally.absorb(r);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tally.monitor_events));
  tally.report(state);
  state.SetLabel("supervised drain");
}
BENCHMARK(BM_WorkerSupervision)->Arg(1)->UseRealTime();
#endif  // LOOM_WIRE_HAS_PROCESS

void BM_WireRoundTrip(benchmark::State& state) {
  // The versioned wire codec under cross-process load: frames and
  // re-decodes a realistic CampaignResult (what every worker partial
  // carries).  One Encoder and a capacity-reusing decode target, the
  // steady-state shape of a parent draining worker pipes — so allocs/frame
  // measures the reuse discipline, not first-touch growth.
  abv::CampaignResult result;
  result.traces = 24;
  result.events = 120000;
  result.valid_accepted = 24;
  for (auto& m : result.mutation) {
    m.applied = 160;
    m.invalid = 150;
    m.detected = 150;
  }
  result.alphabet_coverage = 0.875;
  result.recognizer_state_coverage = 0.9375;
  result.monitor_stats.ops = 2400000;
  result.monitor_stats.events = 120000;
  result.monitor_stats.max_ops_per_event = 24;
  result.trace_cache_hits = 120;
  result.trace_cache_misses = 24;
  result.checkpoint_hits = 700;
  result.events_skipped = 90000;

  wire::Encoder enc;
  std::vector<std::uint8_t> framed;
  abv::CampaignResult result_out;
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    support::AllocCounter::Scope scope;
    enc.clear();
    framed.clear();
    wire::encode_result(enc, result);
    wire::write_frame(framed, wire::Payload::Result, enc);
    wire::Frame frame;
    std::size_t consumed = 0;
    wire::DecodeError err;
    if (!wire::parse_frame(framed.data(), framed.size(), frame, consumed,
                           err)) {
      state.SkipWithError(err.to_string().c_str());
      return;
    }
    wire::Decoder d(frame.data, frame.size);
    const bool ok = wire::decode_result(d, result_out);
    benchmark::DoNotOptimize(result_out);
    if (!ok || !d.exhausted()) {
      state.SkipWithError("decode failed");
      return;
    }
    bytes += framed.size();
    ++frames;
    allocs += scope.allocs();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  if (support::AllocCounter::hooks_linked()) {
    state.counters["allocs/frame"] = benchmark::Counter(bench::safe_ratio(
        static_cast<double>(allocs), static_cast<double>(frames)));
  }
  state.SetLabel("payload=result");
}
BENCHMARK(BM_WireRoundTrip)->Arg(0);

void BM_MonitorModulePerEvent(benchmark::State& state) {
  // In-simulation stepping, one observe() per event: every step pays the
  // violation-callback check and the watchdog re-arm.
  Fixture fx(kConfig[state.range(0)]);
  for (auto _ : state) {
    sim::Scheduler scheduler;
    auto monitor = mon::make_monitor(fx.property);
    mon::MonitorModule module(scheduler, "mon", *monitor, fx.ab);
    for (const auto& ev : fx.trace) module.observe(ev.name, ev.time);
    benchmark::DoNotOptimize(monitor->verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.trace.size()));
  state.SetLabel(kConfig[state.range(0)]);
}
BENCHMARK(BM_MonitorModulePerEvent)->DenseRange(0, 3);

void BM_ParseProperty(benchmark::State& state) {
  const char* source =
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)";
  for (auto _ : state) {
    spec::Alphabet ab;
    support::DiagnosticSink sink;
    benchmark::DoNotOptimize(spec::parse_property(source, ab, sink));
  }
}
BENCHMARK(BM_ParseProperty);

void BM_GenerateStimuli(benchmark::State& state) {
  Fixture fx(kConfig[2], 1);
  support::Rng rng(5);
  abv::StimuliOptions opt;
  opt.rounds = static_cast<std::size_t>(state.range(0));
  std::size_t events = 0;
  for (auto _ : state) {
    auto t = abv::generate_valid(fx.property, fx.ab, rng, opt);
    events += t.size();
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_GenerateStimuli)->Arg(16)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
