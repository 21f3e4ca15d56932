// Differential lockdown of cross-process shard workers — the sixth engine
// invariant: a campaign whose shards run in forked worker subprocesses,
// with every partial result crossing a pipe in the versioned wire format,
// must be byte-for-byte identical to the in-process engine — for every
// backend, at every thread count, at every worker count, with and
// without the checkpoint ladder.  Plus lockdowns of the documented exception (the
// trace-cache split becomes per-process but stays scheduling-independent)
// and of the instance accounting, which being a pure function of the
// shard layout must survive the process boundary exactly.
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

constexpr std::size_t kDefaultStride = CampaignOptions{}.checkpoint_stride;

CampaignRun run_with(const char* source, mon::Backend backend,
                     std::size_t workers, std::size_t threads,
                     std::size_t stride = kDefaultStride,
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
  opt.threads = threads;
  opt.shard_size = shard_size;
  opt.checkpoint_stride = stride;
  opt.workers = workers;  // 0: in-process; N: forked worker subprocesses
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

class CampaignProcessDiff : public ::testing::TestWithParam<const char*> {};

TEST_P(CampaignProcessDiff, CrossProcessEqualsInProcessByteForByte) {
  // The sixth engine invariant across the full grid: the in-process run is
  // computed once per (backend, stride) and every cross-process variant —
  // any worker count, any thread count per worker — must match it byte
  // for byte, report text included.
  for (const mon::Backend backend : kBackends) {
    for (const std::size_t stride : {kDefaultStride, std::size_t{0}}) {
      const CampaignRun in_process =
          run_with(GetParam(), backend, /*workers=*/0, /*threads=*/1, stride);
      for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                        std::size_t{3}}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          const CampaignRun cross =
              run_with(GetParam(), backend, workers, threads, stride);
          const std::string what =
              std::string("backend=") + to_string(backend) +
              " workers=" + std::to_string(workers) +
              " threads=" + std::to_string(threads) +
              " stride=" + std::to_string(stride);
          EXPECT_TRUE(loom::testing::results_identical(cross.result,
                                                       in_process.result))
              << what;
          EXPECT_EQ(cross.report, in_process.report) << what;
          // The instance accounting is a pure function of the shard
          // layout, which both sides share — the process boundary must
          // not show up in it.
          EXPECT_EQ(cross.result.compile_stats.instances_stamped,
                    in_process.result.compile_stats.instances_stamped)
              << what;
          EXPECT_EQ(cross.result.compile_stats.instance_reuses,
                    in_process.result.compile_stats.instance_reuses)
              << what;
          EXPECT_EQ(cross.result.checkpoint_hits,
                    in_process.result.checkpoint_hits)
              << what;
          EXPECT_EQ(cross.result.events_skipped,
                    in_process.result.events_skipped)
              << what;
        }
      }
    }
  }
}

TEST_P(CampaignProcessDiff, ShardSizeStaysResultNeutralAcrossProcesses) {
  const CampaignRun in_process = run_with(GetParam(), mon::Backend::Auto,
                                          /*workers=*/0, /*threads=*/1,
                                          kDefaultStride, /*shard_size=*/6);
  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{3},
                                       std::size_t{100}}) {
    const CampaignRun cross = run_with(GetParam(), mon::Backend::Auto,
                                       /*workers=*/2, /*threads=*/2,
                                       kDefaultStride, shard_size);
    EXPECT_TRUE(
        loom::testing::results_identical(cross.result, in_process.result))
        << "shard_size=" << shard_size;
    EXPECT_EQ(cross.report, in_process.report)
        << "shard_size=" << shard_size;
  }
}

TEST_P(CampaignProcessDiff, ViaPslCrossCheckSurvivesTheProcessBoundary) {
  // check_viapsl runs a second monitor per valid unit inside each worker;
  // its false-alarm accounting must merge across the pipe like everything
  // else.
  const CampaignRun in_process = run_with(GetParam(), mon::Backend::Drct,
                                          /*workers=*/0, /*threads=*/1,
                                          kDefaultStride, /*shard_size=*/6,
                                          /*viapsl=*/true);
  const CampaignRun cross = run_with(GetParam(), mon::Backend::Drct,
                                     /*workers=*/2, /*threads=*/1,
                                     kDefaultStride, /*shard_size=*/6,
                                     /*viapsl=*/true);
  EXPECT_TRUE(
      loom::testing::results_identical(cross.result, in_process.result));
  EXPECT_EQ(cross.report, in_process.report);
}

TEST_P(CampaignProcessDiff, TraceCacheSplitIsPerProcessButDeterministic) {
  // The one documented diagnostic difference: each worker process owns its
  // trace cache, so a seed whose units land on two workers misses once per
  // worker.  The split still must be a pure function of the campaign
  // parameters — repeating the identical cross-process run reproduces it
  // counter for counter — and the semantic bytes never see it.
  const CampaignRun a = run_with(GetParam(), mon::Backend::Auto,
                                 /*workers=*/2, /*threads=*/2, kDefaultStride);
  const CampaignRun b = run_with(GetParam(), mon::Backend::Auto,
                                 /*workers=*/2, /*threads=*/2, kDefaultStride);
  EXPECT_EQ(a.result.trace_cache_hits, b.result.trace_cache_hits);
  EXPECT_EQ(a.result.trace_cache_misses, b.result.trace_cache_misses);
  EXPECT_TRUE(loom::testing::results_identical(a.result, b.result));
  EXPECT_EQ(a.report, b.report);
  // Every unit either hit or missed: the split covers all six units per
  // seed no matter how they were scattered across processes.
  EXPECT_EQ(a.result.trace_cache_hits + a.result.trace_cache_misses,
            6 * 4u);  // kSlotsPerSeed × seeds
}

TEST_P(CampaignProcessDiff, MoreWorkersThanShardsClampsCleanly) {
  // 24 units in one shard each at shard_size=100 → one shard total; asking
  // for 8 workers must clamp to the shard count, not spawn idle workers or
  // fail.
  const CampaignRun in_process = run_with(GetParam(), mon::Backend::Auto,
                                          /*workers=*/0, /*threads=*/1,
                                          kDefaultStride, /*shard_size=*/100);
  const CampaignRun cross = run_with(GetParam(), mon::Backend::Auto,
                                     /*workers=*/8, /*threads=*/1,
                                     kDefaultStride, /*shard_size=*/100);
  EXPECT_TRUE(
      loom::testing::results_identical(cross.result, in_process.result));
  EXPECT_EQ(cross.report, in_process.report);
}

INSTANTIATE_TEST_SUITE_P(
    Properties, CampaignProcessDiff,
    ::testing::Values("(n << i, true)",                               //
                      "(({a, b, c}, &) << s, false)",                 //
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

}  // namespace
}  // namespace loom::abv
