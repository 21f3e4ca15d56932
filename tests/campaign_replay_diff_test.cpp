// Differential lockdown of the cached / batched campaign engine: for a
// grid of properties × seeds × thread counts, a campaign run with the
// per-seed trace cache and batched MonitorModule replay must be
// bit-identical to the legacy regenerate-and-step-per-event path — same
// counts, same coverage ratios, same report text.  The cache hit/miss
// counters are the one deliberate difference, and even they are pinned to
// exact values (one miss per seed, a hit for each of the seed's other five
// units) because the cache's exactly-once insert makes them deterministic.
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "abv/campaign.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

constexpr std::size_t kSlotsPerSeed = 6;  // valid phase + 5 mutation kinds

struct Mode {
  bool reuse_traces;
  bool batch_replay;
  const char* label;
};

constexpr Mode kLegacy = {false, false, "legacy"};
constexpr Mode kModes[] = {
    {true, false, "reuse_traces"},
    {false, true, "batch_replay"},
    {true, true, "reuse_traces+batch_replay"},
};

struct CampaignRun {
  CampaignResult result;
  std::string report;
};

CampaignRun run_with(const char* source, std::size_t threads, Mode mode,
                     std::size_t seeds, bool viapsl,
                     mon::Backend backend = mon::Backend::Auto) {
  // A fresh alphabet per run: runs must not influence each other through
  // interned ids.
  spec::Alphabet ab;
  auto p = loom::testing::parse(source, ab);
  CampaignOptions opt;
  opt.seeds = seeds;
  opt.stimuli.rounds = 3;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 8;
  opt.check_viapsl = viapsl;
  opt.threads = threads;
  opt.shard_size = 1;  // maximal interleaving: every unit its own shard
  opt.reuse_traces = mode.reuse_traces;
  opt.batch_replay = mode.batch_replay;
  opt.backend = backend;
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

void expect_cache_counters(const CampaignResult& r, Mode mode,
                           std::size_t seeds, const char* what) {
  if (mode.reuse_traces) {
    // Whichever of a seed's six units gets there first inserts; the split
    // is exact no matter which one won the race.
    EXPECT_EQ(r.trace_cache_misses, seeds) << what;
    EXPECT_EQ(r.trace_cache_hits, (kSlotsPerSeed - 1) * seeds) << what;
  } else {
    EXPECT_EQ(r.trace_cache_misses, 0u) << what;
    EXPECT_EQ(r.trace_cache_hits, 0u) << what;
  }
}

class CampaignReplayDiff : public ::testing::TestWithParam<const char*> {};

TEST_P(CampaignReplayDiff, CachedBatchedReplayIsBitIdenticalToLegacy) {
  constexpr std::size_t kSeeds[] = {1, 5};
  const std::size_t kThreads[] = {1, 4, 0};  // 0 asks the hardware
  for (const std::size_t seeds : kSeeds) {
    const CampaignRun legacy =
        run_with(GetParam(), 1, kLegacy, seeds, /*viapsl=*/false);
    EXPECT_TRUE(legacy.result.ok()) << legacy.report;
    expect_cache_counters(legacy.result, kLegacy, seeds, "legacy");
    for (const std::size_t threads : kThreads) {
      for (const Mode mode : kModes) {
        const std::string what = std::string(mode.label) + " threads=" +
                                 std::to_string(threads) + " seeds=" +
                                 std::to_string(seeds);
        const CampaignRun run =
            run_with(GetParam(), threads, mode, seeds, /*viapsl=*/false);
        EXPECT_TRUE(loom::testing::results_identical(run.result, legacy.result))
            << what;
        EXPECT_EQ(run.report, legacy.report) << what;
        expect_cache_counters(run.result, mode, seeds, what.c_str());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Properties, CampaignReplayDiff,
    ::testing::Values("(n << i, true)",                               //
                      "(({a, b, c}, &) << s, false)",                 //
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

TEST_P(CampaignReplayDiff, BackendGridKeepsTheCachedPathBitIdentical) {
  // The replay invariant × the backend knob: for every backend, the
  // cached+batched engine at 4 threads must reproduce the legacy
  // regenerate-and-step serial run byte for byte.
  for (const mon::Backend backend :
       {mon::Backend::Auto, mon::Backend::Drct, mon::Backend::ViaPSL,
        mon::Backend::Vm}) {
    const CampaignRun legacy =
        run_with(GetParam(), 1, kLegacy, 3, /*viapsl=*/false, backend);
    const CampaignRun cached =
        run_with(GetParam(), 4, kModes[2], 3, /*viapsl=*/false, backend);
    const std::string what = std::string("backend=") + to_string(backend);
    EXPECT_TRUE(loom::testing::results_identical(cached.result, legacy.result))
        << what;
    EXPECT_EQ(cached.report, legacy.report) << what;
    expect_cache_counters(cached.result, kModes[2], 3, what.c_str());
  }
}

TEST_P(CampaignReplayDiff, DrctAndVmAgreeInEveryReplayMode) {
  // Backend independence across the replay grid: in the legacy mode and
  // every cached/batched mode, forced Drct and forced Vm differ only in
  // the report's backend line.
  std::vector<Mode> modes = {kLegacy};
  modes.insert(modes.end(), std::begin(kModes), std::end(kModes));
  for (const Mode mode : modes) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const CampaignRun drct = run_with(GetParam(), threads, mode, 3,
                                        /*viapsl=*/false, mon::Backend::Drct);
      const CampaignRun vm = run_with(GetParam(), threads, mode, 3,
                                      /*viapsl=*/false, mon::Backend::Vm);
      const std::string what =
          std::string(mode.label) + " threads=" + std::to_string(threads);
      EXPECT_NE(drct.report, vm.report) << what << ": backends not forced";
      EXPECT_EQ(loom::testing::report_without_backend(drct.report),
                loom::testing::report_without_backend(vm.report))
          << what;
    }
  }
}

TEST(CampaignReplayDiff, ViaPslPathIsBitIdenticalToo) {
  // The ViaPSL cross-check runs inside the valid units; the cached /
  // batched engine must leave it untouched as well.
  const char* source = "(({a, b}, &) << s, true)";
  const CampaignRun legacy = run_with(source, 1, kLegacy, 4, /*viapsl=*/true);
  const CampaignRun cached =
      run_with(source, 4, kModes[2], 4, /*viapsl=*/true);
  EXPECT_TRUE(loom::testing::results_identical(cached.result, legacy.result));
  EXPECT_EQ(cached.report, legacy.report);
}

TEST(CampaignReplayDiff, BatchRunSplitsCacheCountersPerProperty) {
  // run_campaigns() shares one cache across properties; the per-result
  // counters must still come out exactly per-property.
  const char* sources[] = {"(n << i, true)", "(p[2,3] => q[1,4] < r, 10us)"};
  spec::Alphabet ab;
  std::vector<spec::Property> props;
  for (const char* s : sources) props.push_back(loom::testing::parse(s, ab));
  std::vector<const spec::Property*> ptrs;
  for (const auto& p : props) ptrs.push_back(&p);

  CampaignOptions opt;
  opt.seeds = 3;
  opt.stimuli.rounds = 2;
  opt.mutants_per_kind = 4;
  opt.threads = 4;
  opt.shard_size = 1;
  const auto results = run_campaigns(ptrs, ab, opt);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.trace_cache_misses, opt.seeds);
    EXPECT_EQ(r.trace_cache_hits, (kSlotsPerSeed - 1) * opt.seeds);
  }
}

}  // namespace
}  // namespace loom::abv
