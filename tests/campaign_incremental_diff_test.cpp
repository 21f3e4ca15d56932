// Differential lockdown of checkpointed, suffix-only mutant replay — the
// fifth engine invariant: a campaign that restores each mutant's monitor
// from the nearest checkpoint at or before the mutation site and replays
// only the suffix must be byte-for-byte identical to the full-replay
// engine — for every backend, at every thread count, at every checkpoint
// stride, under every cache/batch/plan/scratch knob.  The same grid covers
// the oracle, resumed from its own ladder (stride/4, at least 1) and
// stopped where a mutant's walk rejoins the valid trace's: reconverged ≡
// full walk.  Plus lockdowns of the
// accounting: the checkpoint_hits / events_skipped diagnostics are a pure
// function of the campaign parameters (never of scheduling), the ladder
// actually fires on checkpoint-friendly shapes, and configurations without
// a ladder (cache off, stride 0, knob off) replay in full.
#include <gtest/gtest.h>

#include <string>

#include "abv/campaign.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

constexpr mon::Backend kBackends[] = {
    mon::Backend::Auto, mon::Backend::Drct, mon::Backend::ViaPSL,
    mon::Backend::Vm};

struct CampaignRun {
  CampaignResult result;
  std::string report;
};

struct Knobs {
  bool compiled = true;
  bool reuse_traces = true;
  bool batch_replay = true;
  bool reuse_scratch = true;
};

CampaignRun run_with(const char* source, mon::Backend backend,
                     bool incremental, std::size_t stride,
                     std::size_t threads, const Knobs& knobs,
                     std::size_t shard_size = 1, bool viapsl = false) {
  // A fresh alphabet per run: runs must not influence each other through
  // interned ids.
  spec::Alphabet ab;
  auto p = loom::testing::parse(source, ab);
  CampaignOptions opt;
  opt.seeds = 4;
  opt.stimuli.rounds = 4;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 6;
  opt.check_viapsl = viapsl;
  opt.backend = backend;
  opt.use_compiled_plans = knobs.compiled;
  opt.threads = threads;
  opt.shard_size = shard_size;
  opt.reuse_traces = knobs.reuse_traces;
  opt.batch_replay = knobs.batch_replay;
  opt.reuse_scratch = knobs.reuse_scratch;
  opt.incremental_replay = incremental;
  opt.checkpoint_stride = stride;
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

class CampaignIncrementalDiff : public ::testing::TestWithParam<const char*> {
};

TEST_P(CampaignIncrementalDiff, IncrementalEqualsFullReplayByteForByte) {
  // The fifth engine invariant across the full grid: the full-replay run is
  // computed once per (backend, knobs) and every incremental variant —
  // any stride, any thread count — must match it byte for byte.
  const Knobs knob_grid[] = {
      {true, true, true, true},     // the default engine
      {true, true, false, true},    // per-event suffix stepping
      {true, true, true, false},    // no scratch arenas (fresh hosts)
      {false, true, true, true},    // legacy translate-per-unit baseline
  };
  // Stride 8 derives an oracle ladder of stride 2, beside 1 (from 1 and
  // 3) and 8 (from 32): the oracle rungs are four times finer.
  const std::size_t strides[] = {1, 3, 8, 32, 1000000};
  for (const mon::Backend backend : kBackends) {
    for (const Knobs& knobs : knob_grid) {
      const CampaignRun full = run_with(GetParam(), backend,
                                        /*incremental=*/false, 32, 1, knobs);
      for (const std::size_t stride : strides) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          const CampaignRun inc = run_with(GetParam(), backend,
                                           /*incremental=*/true, stride,
                                           threads, knobs);
          const std::string what =
              std::string("backend=") + to_string(backend) +
              " stride=" + std::to_string(stride) +
              " threads=" + std::to_string(threads) +
              " compiled=" + std::to_string(knobs.compiled) +
              " batch=" + std::to_string(knobs.batch_replay) +
              " scratch=" + std::to_string(knobs.reuse_scratch);
          EXPECT_TRUE(
              loom::testing::results_identical(inc.result, full.result))
              << what;
          EXPECT_EQ(inc.report, full.report) << what;
        }
      }
    }
  }
}

TEST_P(CampaignIncrementalDiff, DrctAndVmAgreeAtEveryStride) {
  // Backend independence across the incremental grid: with or without the
  // checkpoint ladder, at any stride and thread count, forced Drct and
  // forced Vm differ only in the report's backend line.
  const Knobs knob_grid[] = {
      {true, true, true, true},
      {true, true, false, true},
      {false, true, true, true},
  };
  for (const Knobs& knobs : knob_grid) {
    for (const bool incremental : {false, true}) {
      for (const std::size_t stride : {std::size_t{1}, std::size_t{3},
                                       std::size_t{32}}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          const CampaignRun drct = run_with(GetParam(), mon::Backend::Drct,
                                            incremental, stride, threads,
                                            knobs);
          const CampaignRun vm = run_with(GetParam(), mon::Backend::Vm,
                                          incremental, stride, threads, knobs);
          const std::string what =
              "incremental=" + std::to_string(incremental) +
              " stride=" + std::to_string(stride) +
              " threads=" + std::to_string(threads) +
              " compiled=" + std::to_string(knobs.compiled) +
              " batch=" + std::to_string(knobs.batch_replay);
          EXPECT_NE(drct.report, vm.report) << what << ": backends not forced";
          EXPECT_EQ(loom::testing::report_without_backend(drct.report),
                    loom::testing::report_without_backend(vm.report))
              << what;
        }
      }
    }
  }
}

TEST_P(CampaignIncrementalDiff, DrctAndVmPickTheSameFloorsAtTheDefaultStride) {
  // Forced Drct records Snapshot rungs, Vm compact rungs: both ladders
  // must offer the same floors, so the restore and skip diagnostics —
  // which report() leaves out — agree too, serial and parallel.  Stride 1
  // rides along because every property restores there (the default
  // stride restores nothing on the short non-repeated traces).
  for (const std::size_t stride :
       {CampaignOptions{}.checkpoint_stride, std::size_t{1}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const CampaignRun drct = run_with(GetParam(), mon::Backend::Drct,
                                        /*incremental=*/true, stride,
                                        threads, Knobs{});
      const CampaignRun vm = run_with(GetParam(), mon::Backend::Vm,
                                      /*incremental=*/true, stride, threads,
                                      Knobs{});
      const std::string what = "stride=" + std::to_string(stride) +
                               " threads=" + std::to_string(threads);
      if (stride == 1) EXPECT_GT(drct.result.checkpoint_hits, 0u) << what;
      EXPECT_EQ(vm.result.checkpoint_hits, drct.result.checkpoint_hits)
          << what;
      EXPECT_EQ(vm.result.events_skipped, drct.result.events_skipped)
          << what;
    }
  }
}

TEST_P(CampaignIncrementalDiff, NoLadderConfigurationsReplayInFull) {
  // Without a cache entry to hold the ladder (reuse_traces off), with a
  // zero stride, or with the knob off, every mutant replays from event 0 —
  // and the diagnostics say so.
  Knobs no_cache;
  no_cache.reuse_traces = false;
  const CampaignRun uncached = run_with(GetParam(), mon::Backend::Auto,
                                        /*incremental=*/true, 32, 1, no_cache);
  EXPECT_EQ(uncached.result.checkpoint_hits, 0u);
  EXPECT_EQ(uncached.result.events_skipped, 0u);

  const CampaignRun zero_stride = run_with(GetParam(), mon::Backend::Auto,
                                           /*incremental=*/true, 0, 1,
                                           Knobs{});
  EXPECT_EQ(zero_stride.result.checkpoint_hits, 0u);
  EXPECT_EQ(zero_stride.result.events_skipped, 0u);

  const CampaignRun off = run_with(GetParam(), mon::Backend::Auto,
                                   /*incremental=*/false, 32, 1, Knobs{});
  EXPECT_EQ(off.result.checkpoint_hits, 0u);
  EXPECT_EQ(off.result.events_skipped, 0u);

  // The no-ladder runs still agree with the default-engine bytes.
  const CampaignRun inc = run_with(GetParam(), mon::Backend::Auto,
                                   /*incremental=*/true, 32, 1, Knobs{});
  EXPECT_TRUE(loom::testing::results_identical(uncached.result, inc.result));
  EXPECT_EQ(zero_stride.report, inc.report);
}

TEST_P(CampaignIncrementalDiff, DiagnosticsAreSchedulingIndependent) {
  // checkpoint_hits and events_skipped are engine diagnostics, but like
  // the trace-cache split they must be a pure function of the campaign
  // parameters: serial and 4-thread runs agree counter for counter at
  // every shard size and stride.
  for (const std::size_t stride : {std::size_t{1}, std::size_t{16}}) {
    for (const std::size_t shard_size : {std::size_t{1}, std::size_t{5}}) {
      const CampaignRun serial = run_with(GetParam(), mon::Backend::Auto,
                                          true, stride, 1, Knobs{},
                                          shard_size);
      const CampaignRun parallel = run_with(GetParam(), mon::Backend::Auto,
                                            true, stride, 4, Knobs{},
                                            shard_size);
      const std::string what = "stride=" + std::to_string(stride) +
                               " shard_size=" + std::to_string(shard_size);
      EXPECT_EQ(parallel.report, serial.report) << what;
      EXPECT_EQ(parallel.result.checkpoint_hits,
                serial.result.checkpoint_hits)
          << what;
      EXPECT_EQ(parallel.result.events_skipped,
                serial.result.events_skipped)
          << what;
    }
  }
}

TEST_P(CampaignIncrementalDiff, TightStrideActuallySkipsPrefixWork) {
  // With stride 1 every mutation site has a floor checkpoint one event
  // below it, so on these multi-round traces the ladder must fire for
  // every replayed (reference-rejected) mutant and skip a nonzero prefix.
  const CampaignRun inc = run_with(GetParam(), mon::Backend::Auto,
                                   /*incremental=*/true, 1, 1, Knobs{});
  std::size_t replayed = 0;
  for (const auto& m : inc.result.mutation) replayed += m.invalid;
  ASSERT_GT(replayed, 0u);
  EXPECT_GT(inc.result.checkpoint_hits, 0u);
  EXPECT_GT(inc.result.events_skipped, 0u);
  // A mutant at position p skips at most p events; hits never exceed the
  // replayed-mutant count.
  EXPECT_LE(inc.result.checkpoint_hits, replayed);

  // Diagnostics land in the opt-in report, never the default one.
  spec::Alphabet ab;
  EXPECT_EQ(inc.report.find("replay:"), std::string::npos);
  const std::string diag = inc.result.report(ab, true);
  EXPECT_NE(diag.find("replay:"), std::string::npos);
  EXPECT_NE(diag.find("checkpoint restores"), std::string::npos);
}

TEST_P(CampaignIncrementalDiff, ViaPslCrossCheckStaysIdentical) {
  // check_viapsl runs a second monitor per valid unit; the ladder belongs
  // to the chosen backend only, and the cross-check path must stay
  // untouched by the knob.
  const CampaignRun full = run_with(GetParam(), mon::Backend::Drct,
                                    /*incremental=*/false, 8, 1, Knobs{},
                                    /*shard_size=*/6, /*viapsl=*/true);
  const CampaignRun inc = run_with(GetParam(), mon::Backend::Drct,
                                   /*incremental=*/true, 8, 4, Knobs{},
                                   /*shard_size=*/6, /*viapsl=*/true);
  EXPECT_TRUE(loom::testing::results_identical(inc.result, full.result));
  EXPECT_EQ(inc.report, full.report);
}

INSTANTIATE_TEST_SUITE_P(
    Properties, CampaignIncrementalDiff,
    ::testing::Values("(n << i, true)",                               //
                      "(({a, b, c}, &) << s, false)",                 //
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

}  // namespace
}  // namespace loom::abv
