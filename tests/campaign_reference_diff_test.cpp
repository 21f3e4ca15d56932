// Differential lockdown of the campaign engine against the literal Fig. 1
// loop (tests/reference_campaign.hpp): every configuration of the one
// production path — backend, thread count, checkpoint stride, worker
// processes, the ViaPSL cross-check, shard layout — must equal the
// reference in results_identical and in report() text.  The reference
// translates a fresh monitor per unit, walks the oracle over every whole
// trace and replays every materialized mutant from event 0, so each cell
// pins the engine's shortcuts at once: the per-seed trace cache, the
// compiled plans and pooled instances, the checkpoint and oracle ladders
// (resume and reconvergence), mutants as edits, piecewise shifted replay,
// the merged seed-pass record and its recognizer samples, the shard merge
// and the wire round trip of worker partials.  A seeded fuzz over the
// campaign parameters checks reconverged ≡ full walk end to end.  Plus the
// engine's accounting: pooled stamps + reuses equal the monitors the
// reference builds fresh (one per valid unit, invalid mutant and ViaPSL
// check), the trace cache misses once per seed, and the instance counters
// do not depend on scheduling.
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
                                      mon::Backend::Vm, mon::Backend::ViaPSL};

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
         " shard_size=" + std::to_string(o.shard_size) +
         " seeds=" + std::to_string(o.seeds) +
         " first_seed=" + std::to_string(o.first_seed) +
         " rounds=" + std::to_string(o.stimuli.rounds) +
         " noise=" + std::to_string(o.stimuli.noise_permille) +
         " mutants=" + std::to_string(o.mutants_per_kind);
}

// The engine run equals the reference run, semantically and in report
// text, and its pooled instances account for exactly the monitors the
// reference builds fresh: one logical draw per valid unit, per invalid
// mutant and per ViaPSL cross-check, whether a draw stamped or reset.
void expect_matches(const CampaignRun& run, const CampaignRun& ref,
                    const CampaignOptions& opt) {
  const std::string what = describe(opt);
  EXPECT_TRUE(loom::testing::results_identical(run.result, ref.result))
      << what;
  EXPECT_EQ(run.report, ref.report) << what;
  const CampaignResult& r = run.result;
  std::size_t draws = r.traces * (opt.check_viapsl ? 2 : 1);
  for (const MutationStats& m : r.mutation) draws += m.invalid;
  EXPECT_EQ(r.compile_stats.instances_stamped +
                r.compile_stats.instance_reuses,
            draws)
      << what;
  EXPECT_EQ(run.result.compile_stats.plans_built, 1u) << what;
  EXPECT_EQ(run.result.compile_stats.viapsl_encodings,
            opt.check_viapsl ||
                    run.result.compile_stats.backend_chosen ==
                        mon::Backend::ViaPSL
                ? 1u
                : 0u)
      << what;
  // Stride 0 keeps no ladder, so nothing is ever restored.
  if (opt.checkpoint_stride == 0) {
    EXPECT_EQ(run.result.checkpoint_hits, 0u) << what;
    EXPECT_EQ(run.result.events_skipped, 0u) << what;
  }
}

// The four properties of the grid; the property-parameterized tests below
// run over the same list.
const char* const kGridProperties[] = {
    "(n << i, true)",
    "(({a, b, c}, &) << s, false)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(p[2,3] => q[1,4] < r, 10us)",
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
      const CampaignRun run = run_engine(source, opt);
      expect_matches(run, ref, opt);
      if (workers == 0) {
        // One in-process cache: whichever of a seed's six units gets
        // there first inserts, every other unit hits.
        EXPECT_EQ(run.result.trace_cache_misses, opt.seeds) << describe(opt);
        EXPECT_EQ(run.result.trace_cache_hits,
                  (kSlotsPerSeed - 1) * opt.seeds)
            << describe(opt);
      }
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
  // Shard sizes that split a seed's six units across shards (so a valid
  // unit often merges a seed-pass record another shard's unit built), one
  // shard for everything, and the hardware's thread count.
  const CampaignOptions base = grid_options(mon::Backend::Auto, false);
  const CampaignRun ref = run_reference(GetParam(), base);
  for (const std::size_t shard_size :
       {std::size_t{1}, std::size_t{4}, std::size_t{7}, std::size_t{100}}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
      CampaignOptions opt = base;
      opt.shard_size = shard_size;
      opt.threads = threads;
      const CampaignRun run = run_engine(GetParam(), opt);
      expect_matches(run, ref, opt);
      if (shard_size >= kSlotsPerSeed) {
        // Units sharing a shard share pooled instances: the pool must
        // actually reuse (every seed has a valid unit and mutants).
        EXPECT_GT(run.result.compile_stats.instance_reuses, 0u)
            << describe(opt);
      }
    }
  }
}

TEST_P(CampaignReferenceDiff, InstanceCountersAreSchedulingIndependent) {
  // The per-shard pool keeps even the instance diagnostics a pure function
  // of the deterministic shard layout, never of worker scheduling: serial
  // and 4-thread runs agree counter for counter at every shard size.
  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{5}}) {
    CampaignOptions opt = grid_options(mon::Backend::Auto, false);
    opt.shard_size = shard_size;
    const CampaignRun serial = run_engine(GetParam(), opt);
    opt.threads = 4;
    const CampaignRun parallel = run_engine(GetParam(), opt);
    const std::string what = "shard_size=" + std::to_string(shard_size);
    EXPECT_EQ(parallel.report, serial.report) << what;
    EXPECT_EQ(parallel.result.compile_stats.instances_stamped,
              serial.result.compile_stats.instances_stamped)
        << what;
    EXPECT_EQ(parallel.result.compile_stats.instance_reuses,
              serial.result.compile_stats.instance_reuses)
        << what;
  }
}

TEST_P(CampaignReferenceDiff, ReferenceIsBackendIndependent) {
  // Semantic fields must not depend on the monitor construction: the
  // reference's forced Drct and forced Vm runs differ only in the report's
  // backend line, so every engine cell equal to both is, too.
  const CampaignRun drct =
      run_reference(GetParam(), grid_options(mon::Backend::Drct, false));
  const CampaignRun vm =
      run_reference(GetParam(), grid_options(mon::Backend::Vm, false));
  EXPECT_NE(drct.report, vm.report) << "backends not forced";
  EXPECT_EQ(loom::testing::report_without_backend(drct.report),
            loom::testing::report_without_backend(vm.report));
}

TEST_P(CampaignReferenceDiff, CompileStatsAccountTheTranslationWork) {
  const CampaignRun run =
      run_engine(GetParam(), grid_options(mon::Backend::Auto, false));
  // Exactly one translation per property, built up front.
  EXPECT_EQ(run.result.compile_stats.plans_built, 1u);
  // Auto resolves via the cost model; for every property of the paper's
  // evaluation the Drct construction is cheaper per event than ViaPSL
  // (Figure 6), and the campaign's prefer_vm tie-break then lands the
  // Drct/Vm tie on the VM.
  EXPECT_EQ(run.result.compile_stats.backend_chosen, mon::Backend::Vm);
  EXPECT_EQ(run.result.compile_stats.backend_requested, mon::Backend::Auto);
  // One instance per valid unit at least.
  EXPECT_GE(run.result.compile_stats.instances_stamped, 4u);
}

INSTANTIATE_TEST_SUITE_P(Properties, CampaignReferenceDiff,
                         ::testing::ValuesIn(kGridProperties));

// The properties the fuzz draws from: the grid's four, the perfbench
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
  // random stride in [1, 33] — so the monitor resumes from its ladder and
  // the oracle from its four times finer one, stopping where each mutant
  // rejoins the valid walk — against the reference's full walks and full
  // replays.
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
    opt.shard_size = rng.below(8);
    const CampaignRun run = run_engine(source, opt);
    const CampaignRun ref = run_reference(source, opt);
    SCOPED_TRACE(std::string("draw ") + std::to_string(draw) + " " + source);
    expect_matches(run, ref, opt);
  }
}

TEST(CampaignReferenceDiff, BatchRunSplitsCacheCountersPerProperty) {
  // run_campaigns() shares one cache across properties and compiles one
  // plan per property; the per-result counters must still come out
  // exactly per-property, and each result equals its property's reference.
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
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].trace_cache_misses, opt.seeds);
    EXPECT_EQ(results[i].trace_cache_hits, (kSlotsPerSeed - 1) * opt.seeds);
    EXPECT_EQ(results[i].compile_stats.plans_built, 1u);
    EXPECT_EQ(results[i].compile_stats.backend_chosen, mon::Backend::Vm);
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
