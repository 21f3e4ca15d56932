// Differential lockdown of the campaign engine against the literal Fig. 1
// loop (tests/reference_campaign.hpp): every configuration of the one
// production path — backend, thread count, checkpoint stride, worker
// processes, the ViaPSL cross-check, shard layout — must equal the
// reference in results_identical and in report() text.  The reference
// translates a fresh monitor per unit, walks the oracle over every whole
// trace and replays every materialized mutant from event 0, so each cell
// pins the engine's shortcuts at once: the seed task, the compiled plans
// and pooled instances, the oracle ladder (resume and reconvergence),
// mutants as edits forked from the valid walk at their positions,
// piecewise shifted replay, the seed pass's recognizer samples, the shard
// merge and the wire round trip of worker partials.  A seeded fuzz over the
// campaign parameters checks reconverged ≡ full walk end to end.  Plus the
// engine's accounting: every layout runs one seed pass per seed, and the
// named diagnostics do not depend on layout, threads or processes.
#include <gtest/gtest.h>

#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "psl/translate.hpp"
#include "reference_campaign.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

constexpr std::size_t kSlotsPerSeed = 6;  // valid phase + 5 mutation kinds

constexpr mon::Backend kBackends[] = {mon::Backend::Auto, mon::Backend::Drct,
                                      mon::Backend::ViaPSL};

constexpr std::size_t kStrides[] = {0, 1, 3, 8, 32};

struct CampaignRun {
  CampaignResult result;
  std::string report;
};

CampaignOptions grid_options(mon::Backend backend, bool viapsl) {
  CampaignOptions opt;
  opt.seeds = 4;
  opt.stimuli.rounds = 4;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 6;
  opt.backend = backend;
  opt.check_viapsl = viapsl;
  return opt;
}

// A fresh alphabet per run: runs must not influence each other through
// interned ids.
CampaignRun run_engine(const char* source, const CampaignOptions& opt) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(source, ab);
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

CampaignRun run_reference(const char* source, const CampaignOptions& opt) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(source, ab);
  const CampaignResult r = loom::testing::reference_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

bool encodable(const char* source) {
  spec::Alphabet ab;
  return psl::encodable(loom::testing::parse(source, ab));
}

std::string describe(const CampaignOptions& o) {
  return std::string("backend=") + mon::to_string(o.backend) +
         " viapsl=" + std::to_string(o.check_viapsl) +
         " threads=" + std::to_string(o.threads) +
         " stride=" + std::to_string(o.checkpoint_stride) +
         " workers=" + std::to_string(o.workers) +
         " shard_seeds=" + std::to_string(o.shard_seeds) +
         " seeds=" + std::to_string(o.seeds) +
         " first_seed=" + std::to_string(o.first_seed) +
         " rounds=" + std::to_string(o.stimuli.rounds) +
         " noise=" + std::to_string(o.stimuli.noise_permille) +
         " mutants=" + std::to_string(o.mutants_per_kind);
}

// The engine run equals the reference run, semantically and in report
// text, and runs one seed pass per seed: a shard never splits a seed.
void expect_matches(const CampaignRun& run, const CampaignRun& ref,
                    const CampaignOptions& opt) {
  const std::string what = describe(opt);
  EXPECT_TRUE(loom::testing::results_identical(run.result, ref.result))
      << what;
  EXPECT_EQ(run.report, ref.report) << what;
  EXPECT_EQ(run.result.trace_cache_misses, opt.seeds) << what;
  EXPECT_EQ(run.result.trace_cache_hits, (kSlotsPerSeed - 1) * opt.seeds)
      << what;
  // Stride 0 forks nothing: every mutant replays from event 0.
  if (opt.checkpoint_stride == 0) {
    EXPECT_EQ(run.result.checkpoint_hits, 0u) << what;
    EXPECT_EQ(run.result.events_skipped, 0u) << what;
  }
}

// The properties of the grid; the property-parameterized tests below run
// over the same list.
const char* const kGridProperties[] = {
    "(n << i, true)",
    "(({a, b, c}, &) << s, false)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(p[2,3] => q[1,4] < r, 10us)",
    "(n[2,3] << i, false)",
    "(a => b[1,3], 15ns)",
};

// One (property, backend, check_viapsl) pair of the grid: its own test
// case, run against that pair's one reference run.  Pairs that need a
// ViaPSL encoding exist only for encodable properties.
struct GridCell {
  std::size_t property;
  mon::Backend backend;
  bool viapsl;
};

std::vector<GridCell> grid_cells() {
  std::vector<GridCell> cells;
  for (std::size_t p = 0; p < std::size(kGridProperties); ++p) {
    const bool psl = encodable(kGridProperties[p]);
    for (const mon::Backend backend : kBackends) {
      if (backend == mon::Backend::ViaPSL && !psl) continue;
      for (const bool viapsl : {false, true}) {
        if (viapsl && !psl) continue;
        cells.push_back({p, backend, viapsl});
      }
    }
  }
  return cells;
}

void PrintTo(const GridCell& cell, std::ostream* os) {
  *os << kGridProperties[cell.property]
      << " backend=" << mon::to_string(cell.backend)
      << " viapsl=" << cell.viapsl;
}

std::string cell_name(const ::testing::TestParamInfo<GridCell>& info) {
  return "p" + std::to_string(info.param.property) + "_" +
         mon::to_string(info.param.backend) +
         (info.param.viapsl ? "_viapsl" : "");
}

// Runs one pair's cells at `workers`: threads 1/4 × every stride.
void check_grid(const GridCell& cell, std::size_t workers) {
  const char* source = kGridProperties[cell.property];
  const CampaignOptions base = grid_options(cell.backend, cell.viapsl);
  const CampaignRun ref = run_reference(source, base);
  // ViaPSL may miss mutants of a timed property; the other backends
  // detect every invalid mutant.
  if (cell.backend != mon::Backend::ViaPSL) {
    EXPECT_TRUE(ref.result.ok()) << describe(base) << "\n" << ref.report;
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t stride : kStrides) {
      CampaignOptions opt = base;
      opt.threads = threads;
      opt.checkpoint_stride = stride;
      opt.workers = workers;
      expect_matches(run_engine(source, opt), ref, opt);
    }
  }
}

class CampaignReferenceDiffGrid : public ::testing::TestWithParam<GridCell> {
};

TEST_P(CampaignReferenceDiffGrid, InProcessGridEqualsTheReference) {
  check_grid(GetParam(), /*workers=*/0);
}

// Its own test, so no in-process pool thread exists when the workers fork
// (a forked child may then start its own threads under every sanitizer).
TEST_P(CampaignReferenceDiffGrid, CrossProcessGridEqualsTheReference) {
  check_grid(GetParam(), /*workers=*/2);
}

INSTANTIATE_TEST_SUITE_P(Cells, CampaignReferenceDiffGrid,
                         ::testing::ValuesIn(grid_cells()), cell_name);

class CampaignReferenceDiff : public ::testing::TestWithParam<const char*> {};

TEST_P(CampaignReferenceDiff, ShardLayoutsEqualTheReference) {
  // The automatic layout, one, two and three seeds per shard (three leaves
  // a short last shard of four seeds), and one shard for everything, each
  // at one thread, four and the hardware's count.
  const CampaignOptions base = grid_options(mon::Backend::Auto, false);
  const CampaignRun ref = run_reference(GetParam(), base);
  for (const std::size_t shard_seeds :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{100}}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
      CampaignOptions opt = base;
      opt.shard_seeds = shard_seeds;
      opt.threads = threads;
      expect_matches(run_engine(GetParam(), opt), ref, opt);
    }
  }
}

TEST_P(CampaignReferenceDiff, DiagnosticCountersAreSchedulingIndependent) {
  // Every named engine diagnostic and the diagnostic report are a pure
  // function of the campaign parameters, never of the layout, the thread
  // count or the process split: two worker processes (run first, so no
  // pool thread exists when they fork) and one, four and the hardware's
  // threads in process agree counter for counter at every shard_seeds.
  const CampaignOptions base = grid_options(mon::Backend::Auto, false);
  const auto diagnostics = [&](const CampaignOptions& opt) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(GetParam(), ab);
    const CampaignResult r = run_campaign(p, ab, opt);
    std::string out = r.report(ab, true);
    for (const auto& c : r.diagnostic_counters()) {
      out += std::string(c.name) + "=" + std::to_string(c.value) + "\n";
    }
    return out;
  };
  const std::string serial = diagnostics(base);
  EXPECT_NE(serial.find("trace_cache_hit_rate="), std::string::npos);
  for (const std::size_t shard_seeds :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{100}}) {
    CampaignOptions opt = base;
    opt.shard_seeds = shard_seeds;
    opt.workers = 2;
    EXPECT_EQ(diagnostics(opt), serial)
        << "workers=2 shard_seeds=" << shard_seeds;
  }
  for (const std::size_t shard_seeds :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{100}}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
      CampaignOptions opt = base;
      opt.shard_seeds = shard_seeds;
      opt.threads = threads;
      EXPECT_EQ(diagnostics(opt), serial)
          << "threads=" << threads << " shard_seeds=" << shard_seeds;
    }
  }
}

TEST_P(CampaignReferenceDiff, ReferenceIsBackendIndependent) {
  // Semantic fields must not depend on how the backend was chosen: the
  // reference's forced Drct run and its Auto run (which resolves to Drct)
  // differ only in the report's backend line, so every engine cell equal
  // to both is, too.
  const CampaignRun drct =
      run_reference(GetParam(), grid_options(mon::Backend::Drct, false));
  const CampaignRun automatic =
      run_reference(GetParam(), grid_options(mon::Backend::Auto, false));
  EXPECT_NE(drct.report, automatic.report) << "backend request not recorded";
  EXPECT_EQ(loom::testing::report_without_backend(drct.report),
            loom::testing::report_without_backend(automatic.report));
  EXPECT_EQ(drct.result.compile_stats.backend_chosen,
            automatic.result.compile_stats.backend_chosen);
}

TEST_P(CampaignReferenceDiff, CompileStatsAccountTheTranslationWork) {
  const CampaignRun run =
      run_engine(GetParam(), grid_options(mon::Backend::Auto, false));
  // Auto resolves via the cost model; for every property of the paper's
  // evaluation the Drct construction is cheaper per event than ViaPSL
  // (Figure 6).
  EXPECT_EQ(run.result.compile_stats.backend_chosen, mon::Backend::Drct);
  EXPECT_EQ(run.result.compile_stats.backend_requested, mon::Backend::Auto);
}

INSTANTIATE_TEST_SUITE_P(Properties, CampaignReferenceDiff,
                         ::testing::ValuesIn(kGridProperties));

// The properties the fuzz draws from: the grid's first four, the perfbench
// shapes, and one without a ViaPSL encoding.
const char* const kFuzzShapes[] = {
    "(n << i, true)",
    "(({a, b, c}, &) << s, false)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(p[2,3] => q[1,4] < r, 10us)",
    "(({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)",
    "(p[2,3] => q[1,4] < r, 1ms)",
    "(({a, b}, &) < c << i, true)",
    "(p => ({q1, q2}, &), 10us)",
};

TEST(CampaignReferenceDiff, FuzzedOptionsEqualTheReference) {
  // Reconverged ≡ full walk, end to end: random campaign parameters and a
  // random stride in [1, 33] — so each mutant's monitor forks from the
  // valid walk and its oracle resumes from a ladder rung every stride / 4
  // events, stopping where the mutant rejoins the valid walk — against the
  // reference's full walks and full replays.
  support::Rng rng = support::Rng::stream(0x5eed, 30);
  for (int draw = 0; draw < 200; ++draw) {
    const char* source = kFuzzShapes[rng.below(std::size(kFuzzShapes))];
    CampaignOptions opt;
    opt.first_seed = 1 + rng.below(1000);
    opt.seeds = 1 + rng.below(4);
    opt.stimuli.rounds = 1 + rng.below(8);
    opt.stimuli.noise_permille = static_cast<std::uint32_t>(rng.below(400));
    opt.mutants_per_kind = rng.below(9);
    opt.checkpoint_stride = 1 + rng.below(33);
    opt.backend = kBackends[rng.below(std::size(kBackends))];
    if (opt.backend == mon::Backend::ViaPSL && !encodable(source)) {
      opt.backend = mon::Backend::Auto;
    }
    opt.check_viapsl = encodable(source) && rng.below(4) == 0;
    opt.threads = 1 + rng.below(2);
    opt.shard_seeds = rng.below(5);
    const CampaignRun run = run_engine(source, opt);
    const CampaignRun ref = run_reference(source, opt);
    SCOPED_TRACE(std::string("draw ") + std::to_string(draw) + " " + source);
    expect_matches(run, ref, opt);
  }
}

TEST(CampaignReferenceDiff, BatchRunSplitsCacheCountersPerProperty) {
  // run_campaigns() shards both properties onto one pool and compiles one
  // plan per property; the per-result counters must still come out
  // exactly per-property, and each result equals its property's reference.
  // At one seed per shard each seed is a shard of its own: one miss and
  // five hits per seed.
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
  opt.shard_seeds = 1;
  const auto results = run_campaigns(ptrs, ab, opt);
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].trace_cache_misses, opt.seeds);
    EXPECT_EQ(results[i].trace_cache_hits, (kSlotsPerSeed - 1) * opt.seeds);
    EXPECT_EQ(results[i].compile_stats.backend_chosen, mon::Backend::Drct);
    const CampaignRun ref = run_reference(sources[i], opt);
    EXPECT_TRUE(loom::testing::results_identical(results[i], ref.result))
        << sources[i];
  }

  const auto plans = compile_property_plans(ptrs, ab, opt);
  ASSERT_EQ(plans.size(), 2u);
  for (std::size_t p = 0; p < plans.size(); ++p) {
    EXPECT_EQ(plans[p].index, p);
    EXPECT_EQ(plans[p].property, ptrs[p]);
    // Copies share the translate-once artifacts instead of re-translating.
    const mon::CompiledProperty copy = plans[p].compiled;
    EXPECT_EQ(&copy.plan(), &plans[p].compiled.plan());
  }
}

}  // namespace
}  // namespace loom::abv
