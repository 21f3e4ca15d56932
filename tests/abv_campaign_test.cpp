#include <gtest/gtest.h>

#include <cmath>
#include <string_view>

#include "abv/campaign.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

class CampaignPasses : public ::testing::TestWithParam<const char*> {};

TEST_P(CampaignPasses, FullLoopIsHealthy) {
  spec::Alphabet ab;
  auto p = loom::testing::parse(GetParam(), ab);
  CampaignOptions opt;
  opt.seeds = 6;
  opt.stimuli.rounds = 3;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 8;
  opt.check_viapsl = true;
  const CampaignResult r = run_campaign(p, ab, opt);
  EXPECT_TRUE(r.ok()) << r.report(ab);
  EXPECT_EQ(r.traces, 6u);
  EXPECT_GT(r.events, 0u);
  EXPECT_EQ(r.valid_accepted, r.traces);
  EXPECT_EQ(r.oracle_disagreements, 0u);
  EXPECT_EQ(r.viapsl_false_alarms, 0u);
  EXPECT_DOUBLE_EQ(r.alphabet_coverage, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Properties, CampaignPasses,
    ::testing::Values("(n << i, true)",                               //
                      "(({a, b, c}, &) << s, false)",                 //
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

TEST(Campaign, MutationsAreActuallyKilled) {
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) < c << i, true)", ab);
  CampaignOptions opt;
  opt.seeds = 8;
  opt.stimuli.rounds = 2;
  opt.mutants_per_kind = 10;
  // Recognizer-state coverage is sampled from the Drct recognizer only, so
  // force that backend.
  opt.backend = mon::Backend::Drct;
  const CampaignResult r = run_campaign(p, ab, opt);
  ASSERT_TRUE(r.ok()) << r.report(ab);
  // The four antecedent-applicable kinds must have produced and killed
  // invalid mutants; StallDeadline is inapplicable to antecedents.
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_GT(r.mutation[k].applied, 0u) << k;
    EXPECT_GT(r.mutation[k].invalid, 0u) << k;
    EXPECT_EQ(r.mutation[k].missed, 0u) << k;
    EXPECT_EQ(r.mutation[k].detected, r.mutation[k].invalid) << k;
  }
  EXPECT_EQ(r.mutation[4].applied, 0u);
  EXPECT_GT(r.recognizer_state_coverage, 0.3);
}

TEST(Campaign, DiagnosticCountersAreFiniteAndGuarded) {
  // A default-constructed result has every denominator at zero; the
  // counters must report 0, never NaN — they feed benchmark counters and
  // the tracked BENCH_*.json baselines, where NaN is unthresholdable.
  const CampaignResult empty;
  for (const auto& c : empty.diagnostic_counters()) {
    EXPECT_TRUE(std::isfinite(c.value)) << c.name;
    EXPECT_EQ(c.value, 0.0) << c.name;
  }

  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) < c << i, true)", ab);
  CampaignOptions opt;
  opt.seeds = 4;
  opt.stimuli.rounds = 2;
  opt.mutants_per_kind = 6;
  const CampaignResult r = run_campaign(p, ab, opt);
  const auto counters = r.diagnostic_counters();
  const auto value = [&](const char* name) {
    for (const auto& c : counters) {
      if (std::string_view(c.name) == name) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return -1.0;
  };
  // Rates are true ratios of the underlying counters, in [0, 1].
  EXPECT_DOUBLE_EQ(value("trace_cache_hit_rate"),
                   static_cast<double>(r.trace_cache_hits) /
                       static_cast<double>(r.trace_cache_hits +
                                           r.trace_cache_misses));
  // A restored rung carries its prefix's stats, so monitor_stats.events
  // already counts every skipped event: it alone is the denominator.
  EXPECT_DOUBLE_EQ(value("skip_ratio"),
                   static_cast<double>(r.events_skipped) /
                       static_cast<double>(r.monitor_stats.events));
  EXPECT_GT(r.events_skipped, 0u);
  EXPECT_LT(r.events_skipped, r.monitor_stats.events);
  EXPECT_EQ(value("backend_viapsl"), 0.0);  // cost model never picks ViaPSL
  EXPECT_EQ(r.compile_stats.backend_chosen, mon::Backend::Drct);
  for (const auto& c : r.diagnostic_counters()) {
    EXPECT_TRUE(std::isfinite(c.value)) << c.name;
  }
}

TEST(Campaign, ForcedViaPslReportsItsCounter) {
  // The backend_* diagnostic counters report the choice honestly;
  // tools/bench_compare.py treats them as semantic, so a silent flip would
  // trip the perf gate.
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) < c << i, true)", ab);
  CampaignOptions opt;
  opt.seeds = 4;
  opt.stimuli.rounds = 2;
  opt.mutants_per_kind = 6;
  opt.backend = mon::Backend::ViaPSL;
  const CampaignResult r = run_campaign(p, ab, opt);
  ASSERT_TRUE(r.ok()) << r.report(ab);
  EXPECT_EQ(r.compile_stats.backend_chosen, mon::Backend::ViaPSL);
  const auto counters = r.diagnostic_counters();
  const auto value = [&](const char* name) {
    for (const auto& c : counters) {
      if (std::string_view(c.name) == name) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return -1.0;
  };
  EXPECT_EQ(value("backend_viapsl"), 1.0);
}

TEST(Campaign, DefaultBackendSamplesRecognizerCoverage) {
  // Auto resolves to Drct; its recognizer coverage must come from the
  // range automata, not default to a vacuous 100%.  A single-round
  // conjunctive fragment never reaches the error or counting-overflow
  // states on valid stimuli, so the honest figure is below 100%.
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b, c}, &) << s, false)", ab);
  CampaignOptions opt;
  opt.seeds = 4;
  opt.mutants_per_kind = 2;
  const CampaignResult r = run_campaign(p, ab, opt);
  ASSERT_EQ(r.compile_stats.backend_chosen, mon::Backend::Drct);
  EXPECT_GT(r.recognizer_state_coverage, 0.0);
  EXPECT_LT(r.recognizer_state_coverage, 1.0);
}

TEST(Campaign, ForcedDrctRunsUnderDefaultOptionsLikeAuto) {
  // Forcing a backend needs no other option: with default CampaignOptions
  // a forced-Drct campaign runs, and its report is the Auto campaign's
  // byte for byte but for the line that names the requested backend.
  spec::Alphabet ab;
  for (const char* source :
       {"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
        "(p[2,3] => q[1,4] < r, 10us)"}) {
    auto p = loom::testing::parse(source, ab);
    CampaignOptions opt;
    const CampaignResult automatic = run_campaign(p, ab, opt);
    opt.backend = mon::Backend::Drct;
    const CampaignResult drct = run_campaign(p, ab, opt);
    ASSERT_EQ(drct.compile_stats.backend_chosen, mon::Backend::Drct);
    EXPECT_TRUE(drct.ok()) << drct.report(ab);
    EXPECT_GT(drct.checkpoint_hits, 0u) << source;
    EXPECT_EQ(loom::testing::report_without_backend(drct.report(ab)),
              loom::testing::report_without_backend(automatic.report(ab)))
        << source;
    EXPECT_NE(drct.report(ab), automatic.report(ab)) << source;
  }
}

TEST(Campaign, ReportIsHumanReadable) {
  spec::Alphabet ab;
  auto p = loom::testing::parse("(n << i, true)", ab);
  CampaignOptions opt;
  opt.seeds = 2;
  opt.mutants_per_kind = 3;
  const CampaignResult r = run_campaign(p, ab, opt);
  const std::string report = r.report(ab);
  EXPECT_NE(report.find("campaign:"), std::string::npos);
  EXPECT_NE(report.find("coverage:"), std::string::npos);
  EXPECT_NE(report.find("early-trigger"), std::string::npos);
  EXPECT_NE(report.find("PASSED"), std::string::npos);
}

}  // namespace
}  // namespace loom::abv
