// Lockdown of the campaign's mutant loop as it runs today: a mutant is an
// edit of the cached valid trace (abv::mutate_edit), and the oracle and
// the monitor read its pieces in place.  That the pieces land on the
// materialized mutant's bytes in every configuration is the reference
// grid's job (campaign_reference_diff_test); this suite pins scheduling
// determinism of the pieces path and what the one scalar loop made
// possible or changed: forced backends under default options, the
// skip_ratio denominator, the wire round trip of a pieces-path result and
// the diagnostic report's lines.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "abv/campaign.hpp"
#include "testing.hpp"
#include "wire/payload.hpp"
#include "wire/wire.hpp"

namespace loom::abv {
namespace {

struct CampaignRun {
  CampaignResult result;
  std::string report;
  std::string diagnostics;  // report(ab, true)
};

struct ViewConfig {
  mon::Backend backend = mon::Backend::Auto;
  std::size_t stride = CampaignOptions{}.checkpoint_stride;  // 0: full replay
  std::size_t threads = 1;
  std::size_t workers = 0;
};

CampaignRun run_with(const char* source, const ViewConfig& s) {
  // A fresh alphabet per run: runs must not influence each other through
  // interned ids.
  spec::Alphabet ab;
  auto p = loom::testing::parse(source, ab);
  CampaignOptions opt;
  opt.seeds = 4;
  opt.stimuli.rounds = 4;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 6;
  opt.backend = s.backend;
  opt.checkpoint_stride = s.stride;
  opt.threads = s.threads;
  opt.workers = s.workers;
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab), r.report(ab, true)};
}

std::string describe(const ViewConfig& s) {
  return std::string("backend=") + to_string(s.backend) +
         " stride=" + std::to_string(s.stride) +
         " threads=" + std::to_string(s.threads) +
         " workers=" + std::to_string(s.workers);
}

class CampaignMutantView : public ::testing::TestWithParam<const char*> {};

TEST_P(CampaignMutantView, ThreadsAndWorkersKeepThePiecesPathBitIdentical) {
  // The scheduling axis of the removed wave grid, on the one scalar loop:
  // the serial run is the baseline, and every thread and worker count must
  // match it byte for byte, report text included.
  for (const mon::Backend backend : {mon::Backend::Auto, mon::Backend::Vm}) {
    ViewConfig serial;
    serial.backend = backend;
    const CampaignRun baseline = run_with(GetParam(), serial);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
        ViewConfig s = serial;
        s.threads = threads;
        s.workers = workers;
        const CampaignRun run = run_with(GetParam(), s);
        EXPECT_TRUE(
            loom::testing::results_identical(run.result, baseline.result))
            << describe(s);
        EXPECT_EQ(run.report, baseline.report) << describe(s);
      }
    }
  }
}

TEST_P(CampaignMutantView, ForcedBackendsRunUnderDefaultOptions) {
  // Forcing a backend needs no other option.  Drct and Vm reports agree
  // but for the line that names the backend; a forced ViaPSL campaign
  // runs, keeps its backend, and is deterministic across thread counts.
  ViewConfig vm;
  vm.backend = mon::Backend::Vm;
  const CampaignRun vm_run = run_with(GetParam(), vm);
  ViewConfig drct;
  drct.backend = mon::Backend::Drct;
  const CampaignRun drct_run = run_with(GetParam(), drct);
  EXPECT_EQ(drct_run.result.compile_stats.backend_chosen,
            mon::Backend::Drct);
  EXPECT_EQ(loom::testing::report_without_backend(drct_run.report),
            loom::testing::report_without_backend(vm_run.report));

  ViewConfig viapsl;
  viapsl.backend = mon::Backend::ViaPSL;
  const CampaignRun serial = run_with(GetParam(), viapsl);
  EXPECT_EQ(serial.result.compile_stats.backend_chosen,
            mon::Backend::ViaPSL);
  EXPECT_GT(serial.result.mutation[0].applied, 0u) << serial.report;
  viapsl.threads = 4;
  const CampaignRun threaded = run_with(GetParam(), viapsl);
  EXPECT_TRUE(
      loom::testing::results_identical(threaded.result, serial.result));
  EXPECT_EQ(threaded.report, serial.report);
}

TEST_P(CampaignMutantView, SkipRatioCountsEverySkippedEventOnce) {
  // A restored rung carries its prefix's stats, so the incremental run's
  // monitor_stats.events equals the full-replay run's: it already counts
  // the skipped events, and skip_ratio divides by it alone.  (A shape
  // whose invalid mutants all edit the trace before its first rung, like
  // the retiring one, restores nothing: its ratio is 0.)
  ViewConfig full;
  full.stride = 0;
  const CampaignRun full_run = run_with(GetParam(), full);
  const CampaignRun incremental = run_with(GetParam(), ViewConfig{});
  const CampaignResult& r = incremental.result;
  ASSERT_EQ(full_run.result.events_skipped, 0u);
  EXPECT_EQ(r.monitor_stats.events, full_run.result.monitor_stats.events);
  EXPECT_EQ(r.checkpoint_hits == 0, r.events_skipped == 0);
  EXPECT_LT(r.events_skipped, r.monitor_stats.events);
  double skip_ratio = -1.0;
  for (const auto& c : r.diagnostic_counters()) {
    if (std::string_view(c.name) == "skip_ratio") skip_ratio = c.value;
  }
  EXPECT_DOUBLE_EQ(skip_ratio,
                   static_cast<double>(r.events_skipped) /
                       static_cast<double>(
                           full_run.result.monitor_stats.events));
}

TEST_P(CampaignMutantView, WireRoundTripPreservesPiecesPathResultsExactly) {
  // A pieces-path result that crosses the wire (as every worker partial
  // does) comes back bit-identical, diagnostic counters included.
  const CampaignRun run = run_with(GetParam(), ViewConfig{});

  wire::Encoder e;
  wire::encode_result(e, run.result);
  wire::Decoder d(e.bytes());
  CampaignResult back;
  ASSERT_TRUE(wire::decode_result(d, back)) << d.error().to_string();
  EXPECT_TRUE(loom::testing::results_identical(back, run.result));
  EXPECT_EQ(back.checkpoint_hits, run.result.checkpoint_hits);
  EXPECT_EQ(back.events_skipped, run.result.events_skipped);
  spec::Alphabet ab;  // report text regenerates from the decoded counters
  EXPECT_EQ(back.report(ab, true), run.diagnostics);
}

TEST_P(CampaignMutantView, DiagnosticReportAddsOnlyEngineLines) {
  // report(ab, true) is the default report plus the engine and replay
  // lines, inserted before the verdict line; no wave line is left in
  // either report.
  const CampaignRun run = run_with(GetParam(), ViewConfig{});
  EXPECT_EQ(run.report.find("lanes:"), std::string::npos);
  EXPECT_EQ(run.diagnostics.find("lanes:"), std::string::npos);
  EXPECT_NE(run.diagnostics.find("\nengine: "), std::string::npos);
  EXPECT_NE(run.diagnostics.find("\nreplay: "), std::string::npos);
  std::string stripped;
  std::size_t begin = 0;
  while (begin < run.diagnostics.size()) {
    const std::size_t end = run.diagnostics.find('\n', begin) + 1;
    const std::string line = run.diagnostics.substr(begin, end - begin);
    if (line.rfind("engine: ", 0) != 0 && line.rfind("replay: ", 0) != 0) {
      stripped += line;
    }
    begin = end;
  }
  EXPECT_EQ(stripped, run.report);
}

INSTANTIATE_TEST_SUITE_P(
    Properties, CampaignMutantView,
    ::testing::Values("(n << i, true)",                               //
                      "(({a, b, c}, &) << s, false)",                 //
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

}  // namespace
}  // namespace loom::abv
