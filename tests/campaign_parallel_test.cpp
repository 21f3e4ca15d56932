// Determinism contract of the sharded campaign engine: the thread count
// and the shard size are pure performance knobs — every CampaignResult
// field and the rendered report must be bit-identical across them.
#include <gtest/gtest.h>

#include "abv/campaign.hpp"
#include "abv/checker.hpp"
#include "mon/monitors.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

struct CampaignRun {
  CampaignResult result;
  std::string report;
};

// Each run parses into a fresh alphabet so runs cannot influence each other
// through interned ids.
CampaignRun run_with(const char* source, std::size_t threads, std::size_t shard_size,
             bool viapsl = true,
             mon::Backend backend = mon::Backend::Auto) {
  spec::Alphabet ab;
  auto p = loom::testing::parse(source, ab);
  CampaignOptions opt;
  opt.seeds = 6;
  opt.stimuli.rounds = 3;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 8;
  opt.check_viapsl = viapsl;
  opt.threads = threads;
  opt.shard_size = shard_size;
  opt.backend = backend;
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

void expect_identical(const CampaignRun& a, const CampaignRun& b, const char* what) {
  EXPECT_EQ(a.result.traces, b.result.traces) << what;
  EXPECT_EQ(a.result.events, b.result.events) << what;
  EXPECT_EQ(a.result.valid_accepted, b.result.valid_accepted) << what;
  EXPECT_EQ(a.result.oracle_disagreements, b.result.oracle_disagreements)
      << what;
  EXPECT_EQ(a.result.viapsl_false_alarms, b.result.viapsl_false_alarms)
      << what;
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(a.result.mutation[k].applied, b.result.mutation[k].applied)
        << what << " kind " << k;
    EXPECT_EQ(a.result.mutation[k].invalid, b.result.mutation[k].invalid)
        << what << " kind " << k;
    EXPECT_EQ(a.result.mutation[k].detected, b.result.mutation[k].detected)
        << what << " kind " << k;
    EXPECT_EQ(a.result.mutation[k].missed, b.result.mutation[k].missed)
        << what << " kind " << k;
  }
  // Coverage ratios and the operation accounting must match to the bit,
  // not within a tolerance: the merge is exact.
  EXPECT_EQ(a.result.alphabet_coverage, b.result.alphabet_coverage) << what;
  EXPECT_EQ(a.result.recognizer_state_coverage,
            b.result.recognizer_state_coverage)
      << what;
  EXPECT_EQ(a.result.monitor_stats.ops, b.result.monitor_stats.ops) << what;
  EXPECT_EQ(a.result.monitor_stats.events, b.result.monitor_stats.events)
      << what;
  EXPECT_EQ(a.result.monitor_stats.max_ops_per_event,
            b.result.monitor_stats.max_ops_per_event)
      << what;
  EXPECT_EQ(a.report, b.report) << what;
}

class ParallelCampaign : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelCampaign, ThreadCountDoesNotChangeTheResult) {
  const CampaignRun serial = run_with(GetParam(), 1, 0);
  EXPECT_TRUE(serial.result.ok()) << serial.report;

  const CampaignRun eight = run_with(GetParam(), 8, 0);
  expect_identical(serial, eight, "threads=8");

  const CampaignRun hardware = run_with(GetParam(), 0, 0);
  expect_identical(serial, hardware, "threads=auto");
}

TEST_P(ParallelCampaign, ShardSizeDoesNotChangeTheResult) {
  const CampaignRun serial = run_with(GetParam(), 1, 0);
  const CampaignRun tiny_shards = run_with(GetParam(), 8, 1);
  expect_identical(serial, tiny_shards, "shard_size=1");
  const CampaignRun odd_shards = run_with(GetParam(), 3, 7);
  expect_identical(serial, odd_shards, "threads=3 shard_size=7");
}

TEST_P(ParallelCampaign, BackendKnobStaysDeterministicAcrossThreads) {
  // The backend grid: whichever monitor construction executes the units,
  // the thread count and shard size stay pure performance knobs.
  for (const mon::Backend backend :
       {mon::Backend::Auto, mon::Backend::Drct, mon::Backend::ViaPSL,
        mon::Backend::Vm}) {
    const CampaignRun serial =
        run_with(GetParam(), 1, 0, /*viapsl=*/false, backend);
    const CampaignRun eight =
        run_with(GetParam(), 8, 1, /*viapsl=*/false, backend);
    expect_identical(serial, eight, to_string(backend));
    // The backend line of the report records the resolved choice.
    EXPECT_NE(serial.report.find(std::string("backend: ") +
                                 to_string(serial.result.compile_stats
                                               .backend_chosen)),
              std::string::npos)
        << serial.report;
  }
}

TEST_P(ParallelCampaign, DrctAndVmAgreeBeyondTheBackendLine) {
  // Backend independence across the thread/shard grid: forced Drct and
  // forced Vm differ only in the report's backend line — recognizer
  // coverage included.
  struct Layout {
    std::size_t threads, shard_size;
  };
  for (const Layout layout : {Layout{1, 0}, Layout{8, 1}, Layout{3, 7}}) {
    for (const bool viapsl : {false, true}) {
      const CampaignRun drct =
          run_with(GetParam(), layout.threads, layout.shard_size, viapsl,
                   mon::Backend::Drct);
      const CampaignRun vm = run_with(GetParam(), layout.threads,
                                      layout.shard_size, viapsl,
                                      mon::Backend::Vm);
      const std::string what = "threads=" + std::to_string(layout.threads) +
                               " shard_size=" +
                               std::to_string(layout.shard_size) +
                               " viapsl=" + std::to_string(viapsl);
      EXPECT_NE(drct.report, vm.report) << what << ": backends not forced";
      EXPECT_EQ(loom::testing::report_without_backend(drct.report),
                loom::testing::report_without_backend(vm.report))
          << what;
      EXPECT_EQ(drct.result.recognizer_state_coverage,
                vm.result.recognizer_state_coverage)
          << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Properties, ParallelCampaign,
    ::testing::Values("(n << i, true)",                               //
                      "(({a, b, c}, &) << s, false)",                 //
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

TEST(ParallelCampaignBatch, MatchesIndividualRuns) {
  // run_campaigns() shards all properties onto one pool; each result must
  // still equal its stand-alone run (same alphabet, same options).
  const char* sources[] = {"(n << i, true)",
                           "(p[2,3] => q[1,4] < r, 10us)"};
  spec::Alphabet batch_ab;
  std::vector<spec::Property> props;
  for (const char* s : sources) {
    props.push_back(loom::testing::parse(s, batch_ab));
  }
  CampaignOptions opt;
  opt.seeds = 4;
  opt.stimuli.rounds = 2;
  opt.mutants_per_kind = 5;
  opt.threads = 4;
  opt.shard_size = 1;

  std::vector<const spec::Property*> ptrs;
  for (const auto& p : props) ptrs.push_back(&p);
  const auto batch = run_campaigns(ptrs, batch_ab, opt);
  ASSERT_EQ(batch.size(), 2u);

  spec::Alphabet solo_ab;
  CampaignOptions solo_opt = opt;
  solo_opt.threads = 1;
  for (std::size_t i = 0; i < 2; ++i) {
    auto p = loom::testing::parse(sources[i], solo_ab);
    const CampaignResult solo = run_campaign(p, solo_ab, solo_opt);
    EXPECT_EQ(batch[i].report(batch_ab), solo.report(solo_ab)) << sources[i];
  }
}

TEST(CheckerAggregation, AbsorbMergesShardCheckersAndStats) {
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  const spec::Trace trace = loom::testing::trace_of("a b s", ab);

  // Two worker-style checkers over the same trace, absorbed into a master.
  Checker master;
  master.add("drct#0", mon::make_monitor(p));
  Checker shard;
  shard.add("drct#1", mon::make_monitor(p));
  master.run(trace, trace.back().time);
  shard.run(trace, trace.back().time);

  const auto solo = master.aggregate_stats();
  master.absorb(std::move(shard));
  ASSERT_EQ(master.size(), 2u);
  EXPECT_EQ(master.name(1), "drct#1");
  EXPECT_TRUE(master.all_passing());

  // Both monitors saw identical traffic, so the absorbed aggregate is
  // exactly double the events/ops with an unchanged per-event worst case.
  const auto merged = master.aggregate_stats();
  EXPECT_EQ(merged.events, 2 * solo.events);
  EXPECT_EQ(merged.ops, 2 * solo.ops);
  EXPECT_EQ(merged.max_ops_per_event, solo.max_ops_per_event);
}

TEST(ParallelCampaign, MonitorStatsAggregateAcrossShards) {
  const CampaignRun serial = run_with("(({a, b, c}, &) << s, false)", 1, 0, false);
  // Every valid phase and every killed mutant ran a monitor, so the
  // aggregated accounting must have seen more events than the stimuli
  // alone and a sane worst case.
  EXPECT_GT(serial.result.monitor_stats.events, serial.result.events);
  EXPECT_GT(serial.result.monitor_stats.ops, 0u);
  EXPECT_GT(serial.result.monitor_stats.max_ops_per_event, 0u);
}

}  // namespace
}  // namespace loom::abv
