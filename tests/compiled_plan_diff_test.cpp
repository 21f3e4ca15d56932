// Differential lockdown of the translate-once compilation layer: a
// campaign over compiled property plans (one translation per property,
// instances stamped from shared artifacts, reset-reused per mutation unit)
// must be byte-for-byte identical to the legacy engine that re-ran the
// whole spec→monitor translation inside every work unit — for every
// backend, at every thread count, under every cache/batch knob.  Plus unit
// lockdowns of mon::CompiledProperty itself: the Auto cost-model choice,
// artifact materialization, instantiate() equivalence with stand-alone
// construction, and the infeasible-shape paths.
#include <gtest/gtest.h>

#include <stdexcept>

#include "abv/campaign.hpp"
#include "mon/compiled.hpp"
#include "psl/clause_monitor.hpp"
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

CampaignRun run_with(const char* source, mon::Backend backend, bool compiled,
                     std::size_t threads, bool viapsl = false,
                     bool reuse_traces = true, bool batch_replay = true) {
  // A fresh alphabet per run: runs must not influence each other through
  // interned ids.
  spec::Alphabet ab;
  auto p = loom::testing::parse(source, ab);
  CampaignOptions opt;
  opt.seeds = 4;
  opt.stimuli.rounds = 3;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 6;
  opt.check_viapsl = viapsl;
  opt.backend = backend;
  opt.use_compiled_plans = compiled;
  opt.threads = threads;
  opt.shard_size = 1;  // maximal interleaving: every unit its own shard
  opt.reuse_traces = reuse_traces;
  opt.batch_replay = batch_replay;
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

class CompiledPlanDiff : public ::testing::TestWithParam<const char*> {};

TEST_P(CompiledPlanDiff, CompiledEqualsPerUnitTranslationByteForByte) {
  for (const mon::Backend backend : kBackends) {
    const CampaignRun legacy =
        run_with(GetParam(), backend, /*compiled=*/false, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string what = std::string("backend=") + to_string(backend) +
                               " threads=" + std::to_string(threads);
      const CampaignRun compiled =
          run_with(GetParam(), backend, /*compiled=*/true, threads);
      EXPECT_TRUE(
          loom::testing::results_identical(compiled.result, legacy.result))
          << what;
      EXPECT_EQ(compiled.report, legacy.report) << what;
    }
  }
}

TEST_P(CompiledPlanDiff, CompiledPathIsDeterministicUnderEveryKnob) {
  // Thread count, shard size and the cache/batch knobs stay pure
  // performance knobs on the compiled path — including the diagnostics:
  // the instance counters are a pure function of the work, not of the
  // sharding.
  for (const mon::Backend backend : kBackends) {
    const CampaignRun serial = run_with(GetParam(), backend, true, 1);
    for (const bool reuse : {false, true}) {
      for (const bool batch : {false, true}) {
        const CampaignRun run = run_with(GetParam(), backend, true, 4,
                                         /*viapsl=*/false, reuse, batch);
        const std::string what = std::string("backend=") + to_string(backend) +
                                 " reuse=" + std::to_string(reuse) +
                                 " batch=" + std::to_string(batch);
        EXPECT_EQ(run.report, serial.report) << what;
        EXPECT_EQ(run.result.compile_stats.instances_stamped,
                  serial.result.compile_stats.instances_stamped)
            << what;
        EXPECT_EQ(run.result.compile_stats.instance_reuses,
                  serial.result.compile_stats.instance_reuses)
            << what;
      }
    }
  }
}

TEST_P(CompiledPlanDiff, CompileStatsAccountTheTranslationWork) {
  const CampaignRun compiled =
      run_with(GetParam(), mon::Backend::Auto, true, 1);
  const CampaignRun legacy =
      run_with(GetParam(), mon::Backend::Auto, false, 1);

  // Exactly one translation per property either way — the plans are built
  // up front in both modes; only the per-unit work differs.
  EXPECT_EQ(compiled.result.compile_stats.plans_built, 1u);
  EXPECT_EQ(legacy.result.compile_stats.plans_built, 1u);
  // Auto resolves via the cost model; for every property of the paper's
  // evaluation the Drct construction is cheaper per event than ViaPSL
  // (Figure 6), and the campaign's prefer_vm tie-break then lands the
  // Drct/Vm tie on the VM.
  EXPECT_EQ(compiled.result.compile_stats.backend_chosen, mon::Backend::Vm);
  EXPECT_EQ(compiled.result.compile_stats.backend_requested,
            mon::Backend::Auto);
  // One instance per valid unit at least; the legacy path stamps at least
  // as many (a fresh one per killed mutant) and never reuses.
  EXPECT_GE(compiled.result.compile_stats.instances_stamped, 4u);
  EXPECT_GE(legacy.result.compile_stats.instances_stamped,
            compiled.result.compile_stats.instances_stamped);
  EXPECT_EQ(legacy.result.compile_stats.instance_reuses, 0u);
  // Reuse happens exactly when a unit kills more than one mutant:
  // stamped + reused == legacy stamped (same monitors fed either way).
  EXPECT_EQ(compiled.result.compile_stats.instances_stamped +
                compiled.result.compile_stats.instance_reuses,
            legacy.result.compile_stats.instances_stamped);
}

INSTANTIATE_TEST_SUITE_P(
    Properties, CompiledPlanDiff,
    ::testing::Values("(n << i, true)",                               //
                      "(({a, b, c}, &) << s, false)",                 //
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

TEST(CompiledPlanDiff, ViaPslCrossCheckUsesTheSharedEncoding) {
  // check_viapsl rides along unchanged: compiled and legacy both
  // instantiate the cross-check from the one materialized clause set.
  const char* source = "(({a, b}, &) << s, true)";
  const CampaignRun legacy =
      run_with(source, mon::Backend::Drct, false, 1, /*viapsl=*/true);
  const CampaignRun compiled =
      run_with(source, mon::Backend::Drct, true, 4, /*viapsl=*/true);
  EXPECT_TRUE(
      loom::testing::results_identical(compiled.result, legacy.result));
  EXPECT_EQ(compiled.report, legacy.report);
  EXPECT_EQ(compiled.result.compile_stats.viapsl_encodings, 1u);
}

TEST(CompiledPlanDiff, BatchCampaignCompilesOnePlanPerProperty) {
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
    EXPECT_EQ(r.compile_stats.plans_built, 1u);
    EXPECT_EQ(r.compile_stats.backend_chosen, mon::Backend::Vm);
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

// --- mon::CompiledProperty unit lockdowns ---------------------------------

TEST(CompiledProperty, AutoConsultsTheCostModelAndPicksDrct) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const auto c = mon::CompiledProperty::compile(p, ab);
  EXPECT_EQ(c.requested(), mon::Backend::Auto);
  EXPECT_EQ(c.chosen(), mon::Backend::Drct);
  EXPECT_TRUE(c.viapsl_feasible());
  // The decision is visible: the analytic per-event costs that drove it.
  EXPECT_GT(c.viapsl_cost().ops_per_token + c.viapsl_cost().lexer_ops,
            c.drct_ops_per_event());
  // Drct chosen and no cross-check requested: no clause set materialized.
  EXPECT_EQ(c.encoding(), nullptr);
  EXPECT_THROW((void)c.instantiate(mon::Backend::ViaPSL), std::logic_error);
}

TEST(CompiledProperty, PreferVmResolvesTheAutoTieToVm) {
  // The campaign engine's tie-break (CompileOptions::prefer_vm): the VM
  // executes Drct's exact op schedule, so the two tie under the cost model
  // and the flag decides the winner — while a genuine ViaPSL cost win
  // still takes precedence over both.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  mon::CompileOptions opt;
  opt.prefer_vm = true;
  const auto c = mon::CompiledProperty::compile(p, ab, opt);
  EXPECT_EQ(c.requested(), mon::Backend::Auto);
  // The precedence rule, pinned against the exposed analytic costs: ViaPSL
  // wins iff feasible and strictly cheaper, otherwise prefer_vm lands the
  // Drct/Vm tie on the VM.
  const std::uint64_t viapsl_ops =
      c.viapsl_cost().ops_per_token + c.viapsl_cost().lexer_ops;
  const mon::Backend expected =
      c.viapsl_feasible() && viapsl_ops < c.drct_ops_per_event()
          ? mon::Backend::ViaPSL
          : mon::Backend::Vm;
  EXPECT_EQ(c.chosen(), expected);
  EXPECT_EQ(c.chosen(), mon::Backend::Vm);  // Drct is cheaper here (Fig. 6)
  // The VM artifact is materialized for the chosen backend, and an
  // instance stamps without error.
  ASSERT_NE(c.vm_program(), nullptr);
  EXPECT_NE(c.instantiate(), nullptr);
  EXPECT_EQ(c.vm_ops_per_event(), c.drct_ops_per_event());
}

TEST(CompiledProperty, PreferVmIsPartOfThePlanCacheKey) {
  // Two compilations differing only in prefer_vm must not alias: their
  // chosen backends (and materialized artifacts) differ.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(n << i, true)", ab);
  mon::CompileOptions drct_tie;
  mon::CompileOptions vm_tie;
  vm_tie.prefer_vm = true;
  EXPECT_NE(mon::CompiledPropertyCache::key_of(p, ab, drct_tie),
            mon::CompiledPropertyCache::key_of(p, ab, vm_tie));
  mon::CompiledPropertyCache cache;
  (void)cache.get_or_compile(p, ab, drct_tie);
  (void)cache.get_or_compile(p, ab, vm_tie);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CompiledProperty, ForcedViaPslMaterializesTheClauseSet) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  mon::CompileOptions opt;
  opt.backend = mon::Backend::ViaPSL;
  const auto c = mon::CompiledProperty::compile(p, ab, opt);
  EXPECT_EQ(c.chosen(), mon::Backend::ViaPSL);
  ASSERT_NE(c.encoding(), nullptr);
  EXPECT_GT(c.encoding()->clauses.size(), 0u);
  // Every instance shares that one encoding.
  auto m = c.instantiate();
  ASSERT_NE(dynamic_cast<psl::ClauseMonitor*>(m.get()), nullptr);
  EXPECT_EQ(&dynamic_cast<psl::ClauseMonitor&>(*m).encoding(), c.encoding());
}

TEST(CompiledProperty, InstantiateMatchesStandaloneConstruction) {
  // A stamped instance must behave exactly like a monitor built the
  // pre-plan way: same verdicts, same stats, same space, over traces that
  // exercise both accepting and violating runs.
  spec::Alphabet ab;
  const spec::Property p =
      loom::testing::parse("(({a, b, c}, &) << s, true)", ab);
  mon::CompileOptions opt;
  opt.with_viapsl_artifact = true;
  const auto c = mon::CompiledProperty::compile(p, ab, opt);

  const char* traces[] = {"a b c s a c b s", "a b s", "s", "a b c s s"};
  for (const char* text : traces) {
    const spec::Trace t = loom::testing::trace_of(text, ab);

    auto stamped = c.instantiate(mon::Backend::Drct);
    auto standalone = mon::make_monitor(p);
    EXPECT_EQ(loom::testing::run_monitor(*stamped, t),
              loom::testing::run_monitor(*standalone, t))
        << text;
    EXPECT_EQ(stamped->stats().ops, standalone->stats().ops) << text;
    EXPECT_EQ(stamped->space_bits(), standalone->space_bits()) << text;

    auto stamped_psl = c.instantiate(mon::Backend::ViaPSL);
    psl::ClauseMonitor standalone_psl(psl::encode(p, 2000000, &ab));
    EXPECT_EQ(loom::testing::run_monitor(*stamped_psl, t),
              loom::testing::run_monitor(standalone_psl, t))
        << text;
    EXPECT_EQ(stamped_psl->stats().ops, standalone_psl.stats().ops) << text;
    EXPECT_EQ(stamped_psl->space_bits(), standalone_psl.space_bits()) << text;
  }
}

TEST(CompiledProperty, UntranslatableShapeFallsBackOrThrows) {
  // A timed chain whose final fragment holds several ranges has no ViaPSL
  // encoding: Auto must fall back to Drct without materializing anything;
  // forcing ViaPSL must throw the translator's error.
  spec::Alphabet ab;
  const spec::Property p =
      loom::testing::parse("(p => ({q1, q2}, &), 10us)", ab);
  const auto c = mon::CompiledProperty::compile(p, ab);
  EXPECT_FALSE(c.viapsl_feasible());
  EXPECT_EQ(c.chosen(), mon::Backend::Drct);

  mon::CompileOptions opt;
  opt.backend = mon::Backend::ViaPSL;
  EXPECT_THROW((void)mon::CompiledProperty::compile(p, ab, opt),
               std::invalid_argument);
}

TEST(CompiledProperty, ClauseBudgetBoundsTheAutoChoice) {
  // Shrinking max_clauses below the (tiny) encoding flips feasibility; the
  // analytic clause count is what gates it, no materialization attempted.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  mon::CompileOptions opt;
  opt.max_clauses = 1;
  const auto c = mon::CompiledProperty::compile(p, ab, opt);
  EXPECT_FALSE(c.viapsl_feasible());
  EXPECT_EQ(c.chosen(), mon::Backend::Drct);
}

TEST(CompiledProperty, SnapshotsTheInternedAlphabet) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  const auto c = mon::CompiledProperty::compile(p, ab);
  EXPECT_EQ(c.alphabet().count(), 3u);
  c.alphabet().for_each([&](std::size_t name) {
    EXPECT_EQ(c.text_of(static_cast<spec::Name>(name)),
              ab.text(static_cast<spec::Name>(name)));
  });
  EXPECT_THROW((void)c.text_of(ab.name("not_in_property")),
               std::out_of_range);
}

TEST(CompiledProperty, BackendParsingRoundTrips) {
  for (const mon::Backend b : kBackends) {
    const auto parsed = mon::parse_backend(mon::to_string(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(mon::parse_backend("psl").has_value());
  EXPECT_FALSE(mon::parse_backend("").has_value());
}

}  // namespace
}  // namespace loom::abv
