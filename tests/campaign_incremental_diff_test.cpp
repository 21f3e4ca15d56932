// Lockdown of checkpointed, suffix-only mutant replay's accounting.  That
// every stride's results equal the full-replay reference loop is the
// reference grid's job (campaign_reference_diff_test); this suite pins the
// checkpoint_hits / events_skipped diagnostics: they are a pure function of
// the campaign parameters (never of scheduling or of the rung format), the
// ladder actually fires on checkpoint-friendly shapes, and stride 0 — no
// ladder — replays in full.
#include <gtest/gtest.h>

#include <string>

#include "abv/campaign.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

struct CampaignRun {
  CampaignResult result;
  std::string report;
};

CampaignRun run_with(const char* source, mon::Backend backend,
                     std::size_t stride, std::size_t threads,
                     std::size_t shard_seeds = 1) {
  // A fresh alphabet per run: runs must not influence each other through
  // interned ids.
  spec::Alphabet ab;
  auto p = loom::testing::parse(source, ab);
  CampaignOptions opt;
  opt.seeds = 4;
  opt.stimuli.rounds = 4;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 6;
  opt.backend = backend;
  opt.threads = threads;
  opt.shard_seeds = shard_seeds;
  opt.checkpoint_stride = stride;
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

class CampaignIncrementalDiff : public ::testing::TestWithParam<const char*> {
};

TEST_P(CampaignIncrementalDiff, DrctAndVmPickTheSameFloorsAtTheDefaultStride) {
  // Forced Drct records Snapshot rungs, Vm compact rungs: both ladders
  // must offer the same floors, so the restore and skip diagnostics —
  // which report() leaves out — agree too, serial and parallel.  Stride 1
  // rides along because every property restores there (the default
  // stride restores nothing on the short non-repeated traces).
  for (const std::size_t stride :
       {CampaignOptions{}.checkpoint_stride, std::size_t{1}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const CampaignRun drct =
          run_with(GetParam(), mon::Backend::Drct, stride, threads);
      const CampaignRun vm =
          run_with(GetParam(), mon::Backend::Vm, stride, threads);
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
  // With a zero stride there is no ladder: every mutant replays from event
  // 0 — and the diagnostics say so — while the bytes stay the default
  // engine's.
  const CampaignRun zero_stride =
      run_with(GetParam(), mon::Backend::Auto, 0, 1);
  EXPECT_EQ(zero_stride.result.checkpoint_hits, 0u);
  EXPECT_EQ(zero_stride.result.events_skipped, 0u);

  const CampaignRun inc = run_with(GetParam(), mon::Backend::Auto, 32, 1);
  EXPECT_TRUE(
      loom::testing::results_identical(zero_stride.result, inc.result));
  EXPECT_EQ(zero_stride.report, inc.report);
}

TEST_P(CampaignIncrementalDiff, DiagnosticsAreSchedulingIndependent) {
  // checkpoint_hits and events_skipped are engine diagnostics, but like
  // the trace-cache split they must be a pure function of the campaign
  // parameters: serial and 4-thread runs agree counter for counter at
  // every shard size and stride.
  for (const std::size_t stride : {std::size_t{1}, std::size_t{16}}) {
    for (const std::size_t shard_seeds :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{100}}) {
      const CampaignRun serial = run_with(GetParam(), mon::Backend::Auto,
                                          stride, 1, shard_seeds);
      const CampaignRun parallel = run_with(GetParam(), mon::Backend::Auto,
                                            stride, 4, shard_seeds);
      const std::string what = "stride=" + std::to_string(stride) +
                               " shard_seeds=" + std::to_string(shard_seeds);
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
  const CampaignRun inc = run_with(GetParam(), mon::Backend::Auto, 1, 1);
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

INSTANTIATE_TEST_SUITE_P(
    Properties, CampaignIncrementalDiff,
    ::testing::Values("(n << i, true)",                               //
                      "(({a, b, c}, &) << s, false)",                 //
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

}  // namespace
}  // namespace loom::abv
