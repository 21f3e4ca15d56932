// Differential lockdown of the zero-allocation steady state: a campaign
// run out of per-worker scratch arenas (reusable mutant buffers via
// mutate_into, per-shard monitor pools for valid and mutation units, the
// hoisted batched-replay host, the plan-reusing reference oracle) must be
// byte-for-byte identical to the fresh-allocation engine — for every
// backend, at every thread count, under every cache/batch/plan knob.  Plus
// unit lockdowns of the pieces: mutate_into ≡ mutate under a dirty reused
// scratch, MonitorModule::reset ≡ fresh module, and the cross-campaign
// mon::CompiledPropertyCache (hit/miss accounting, stable references,
// alias rules of the normalized key).
#include <gtest/gtest.h>

#include "abv/campaign.hpp"
#include "mon/compiled.hpp"
#include "mon/monitors.hpp"
#include "sim/scheduler.hpp"
#include "spec/reference.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

constexpr mon::Backend kBackends[] = {
    mon::Backend::Auto, mon::Backend::Drct, mon::Backend::ViaPSL,
    mon::Backend::Vm};

constexpr MutationKind kKinds[] = {
    MutationKind::Drop, MutationKind::Duplicate, MutationKind::SwapAdjacent,
    MutationKind::EarlyTrigger, MutationKind::StallDeadline};

struct CampaignRun {
  CampaignResult result;
  std::string report;
};

struct Knobs {
  bool compiled = true;
  bool reuse_traces = true;
  bool batch_replay = true;
};

CampaignRun run_with(const char* source, mon::Backend backend, bool scratch,
                     std::size_t threads, const Knobs& knobs,
                     std::size_t shard_size = 1, bool viapsl = false) {
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
  opt.use_compiled_plans = knobs.compiled;
  opt.threads = threads;
  opt.shard_size = shard_size;
  opt.reuse_traces = knobs.reuse_traces;
  opt.batch_replay = knobs.batch_replay;
  opt.reuse_scratch = scratch;
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

class CampaignScratchDiff : public ::testing::TestWithParam<const char*> {};

TEST_P(CampaignScratchDiff, ScratchEqualsFreshByteForByte) {
  // The fourth engine invariant: scratch/pooled ≡ fresh at any thread
  // count, backend and knob combination.  The fresh run is computed once
  // per (backend, knobs) and every scratch variant must match it.
  const Knobs knob_grid[] = {
      {true, true, true},    // the default engine
      {true, false, false},  // no seed cache, per-event stepping
      {false, true, true},   // legacy translate-per-unit baseline
      {false, false, false}, // everything naive
  };
  for (const mon::Backend backend : kBackends) {
    for (const Knobs& knobs : knob_grid) {
      const CampaignRun fresh =
          run_with(GetParam(), backend, /*scratch=*/false, 1, knobs);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const CampaignRun scratch =
            run_with(GetParam(), backend, /*scratch=*/true, threads, knobs);
        const std::string what =
            std::string("backend=") + to_string(backend) +
            " threads=" + std::to_string(threads) +
            " compiled=" + std::to_string(knobs.compiled) +
            " reuse=" + std::to_string(knobs.reuse_traces) +
            " batch=" + std::to_string(knobs.batch_replay);
        EXPECT_TRUE(
            loom::testing::results_identical(scratch.result, fresh.result))
            << what;
        EXPECT_EQ(scratch.report, fresh.report) << what;
      }
    }
  }
}

TEST_P(CampaignScratchDiff, ScratchIsDeterministicAcrossThreadCounts) {
  // The per-shard pool keeps even the instance diagnostics a pure function
  // of the deterministic shard layout, never of worker scheduling: serial
  // and 4-thread runs agree counter-for-counter at every shard size.
  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{5}}) {
    const CampaignRun serial = run_with(GetParam(), mon::Backend::Auto, true,
                                        1, Knobs{}, shard_size);
    const CampaignRun parallel = run_with(GetParam(), mon::Backend::Auto, true,
                                          4, Knobs{}, shard_size);
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

TEST_P(CampaignScratchDiff, PoolingConservesTheLogicalDrawCount) {
  // Pooling changes how often a draw stamps vs resets, never how many
  // monitors the work logically needed: stamped + reused is invariant
  // across scratch on/off and shard sizes (same monitors fed either way).
  const CampaignRun fresh =
      run_with(GetParam(), mon::Backend::Auto, false, 1, Knobs{});
  const auto fresh_draws = fresh.result.compile_stats.instances_stamped +
                           fresh.result.compile_stats.instance_reuses;
  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{6}}) {
    const CampaignRun scratch = run_with(GetParam(), mon::Backend::Auto, true,
                                         1, Knobs{}, shard_size);
    EXPECT_EQ(scratch.result.compile_stats.instances_stamped +
                  scratch.result.compile_stats.instance_reuses,
              fresh_draws)
        << "shard_size=" << shard_size;
    if (shard_size > 1) {
      // Units sharing a shard now share instances — the pool must actually
      // reuse (this property has 4 valid units alone).
      EXPECT_GT(scratch.result.compile_stats.instance_reuses,
                fresh.result.compile_stats.instance_reuses)
          << "shard_size=" << shard_size;
    }
  }
}

TEST_P(CampaignScratchDiff, ViaPslCrossCheckPoolsTheSharedInstance) {
  const CampaignRun fresh = run_with(GetParam(), mon::Backend::Drct, false, 1,
                                     Knobs{}, /*shard_size=*/6,
                                     /*viapsl=*/true);
  const CampaignRun scratch = run_with(GetParam(), mon::Backend::Drct, true, 4,
                                       Knobs{}, /*shard_size=*/6,
                                       /*viapsl=*/true);
  EXPECT_TRUE(
      loom::testing::results_identical(scratch.result, fresh.result));
  EXPECT_EQ(scratch.report, fresh.report);
  EXPECT_EQ(scratch.result.compile_stats.viapsl_encodings, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Properties, CampaignScratchDiff,
    ::testing::Values("(n << i, true)",                               //
                      "(({a, b, c}, &) << s, false)",                 //
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

// --- mutate_into ≡ mutate under a dirty, reused scratch -------------------

class MutateIntoFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(MutateIntoFuzz, ByteIdenticalToMutateAcrossKindsAndSeeds) {
  spec::Alphabet ab;
  const spec::Property property = loom::testing::parse(GetParam(), ab);
  const spec::NameSet alphabet = property.alphabet();
  StimuliOptions sopt;
  sopt.rounds = 4;
  sopt.noise_permille = 150;

  // One scratch for the whole fuzz: every call sees whatever the previous
  // kind/seed left behind — sizes, times and names all differ, so a leak
  // of stale bytes would surface as a trace mismatch.
  MutationResult scratch;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    support::Rng gen_rng = support::Rng::stream(seed, 0);
    const spec::Trace valid = generate_valid(property, ab, gen_rng, sopt);
    for (const MutationKind kind : kKinds) {
      // Identical streams: the contract says identical Rng consumption.
      support::Rng rng_a = support::Rng::stream(seed, 7);
      support::Rng rng_b = support::Rng::stream(seed, 7);
      for (int round = 0; round < 8; ++round) {
        const auto fresh = mutate(valid, kind, property, rng_a);
        const bool applied =
            mutate_into(valid, kind, property, alphabet, rng_b, scratch);
        const std::string what = std::string(to_string(kind)) + " seed=" +
                                 std::to_string(seed) + " round=" +
                                 std::to_string(round);
        ASSERT_EQ(applied, fresh.has_value()) << what;
        if (!applied) continue;
        EXPECT_EQ(scratch.kind, fresh->kind) << what;
        EXPECT_EQ(scratch.position, fresh->position) << what;
        EXPECT_TRUE(
            loom::testing::traces_equal(scratch.trace, fresh->trace, ab))
            << what;
        // And the streams must still agree for the *next* draw.
        EXPECT_EQ(rng_a.next(), rng_b.next()) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Properties, MutateIntoFuzz,
    ::testing::Values("(n << i, true)",
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

// --- plan-reusing reference oracle ----------------------------------------

TEST(ReferencePlanReuse, PlanOverloadMatchesThePlanningOverload) {
  spec::Alphabet ab;
  for (const char* source :
       {"(({a, b, c}, &) << s, true)", "(p[2,3] => q[1,4] < r, 10us)"}) {
    const spec::Property p = loom::testing::parse(source, ab);
    const auto compiled = mon::CompiledProperty::compile(p, ab);
    StimuliOptions sopt;
    sopt.rounds = 3;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      support::Rng rng = support::Rng::stream(seed, 0);
      spec::Trace t = generate_valid(p, ab, rng, sopt);
      // Perturb the tail so rejected runs are exercised too.
      if (t.size() > 2) t.erase(t.begin() + static_cast<long>(t.size() / 2));
      const sim::Time end = t.empty() ? sim::Time::zero() : t.back().time;
      const auto planned = spec::reference_check(p, t, end);
      const auto reused = spec::reference_check(p, compiled.plan(), t, end);
      EXPECT_EQ(planned.verdict, reused.verdict) << source;
      EXPECT_EQ(planned.error_index, reused.error_index) << source;
      EXPECT_EQ(planned.reason, reused.reason) << source;
    }
  }
}

// --- MonitorModule reset ≡ fresh module -----------------------------------

TEST(MonitorModuleReset, ResetHostReplaysLikeAFreshOne) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(n << i, true)", ab);
  // The canonical violation: the trigger before any pattern round.
  const spec::Trace bad = loom::testing::trace_of("i n", ab);
  const auto compiled = mon::CompiledProperty::compile(p, ab);

  // Fresh host per replay (the baseline the campaign's fresh path uses).
  auto reference = compiled.instantiate();
  std::size_t fresh_callbacks = 0;
  for (int i = 0; i < 3; ++i) {
    sim::Scheduler sched;
    mon::MonitorModule module(sched, "replay", *reference, ab);
    module.on_violation([&](const mon::Violation&) { ++fresh_callbacks; });
    reference->reset();
    module.observe_batch(bad, mon::MonitorModule::BatchPolicy::ReplayAll);
    reference->finish(bad.back().time);
  }
  const auto fresh_verdict = reference->verdict();

  // One host, reset between replays, watchdogs off (never pumped anyway).
  auto pooled = compiled.instantiate();
  sim::Scheduler sched;
  mon::MonitorModule module(sched, "replay", *pooled, ab);
  module.set_arm_watchdogs(false);
  std::size_t pooled_callbacks = 0;
  module.on_violation([&](const mon::Violation&) { ++pooled_callbacks; });
  for (int i = 0; i < 3; ++i) {
    module.reset();
    pooled->reset();
    module.observe_batch(bad, mon::MonitorModule::BatchPolicy::ReplayAll);
    pooled->finish(bad.back().time);
  }

  EXPECT_EQ(fresh_callbacks, 3u);
  EXPECT_EQ(pooled_callbacks, 3u);  // reset() re-arms the callback latch
  EXPECT_EQ(pooled->verdict(), fresh_verdict);
  EXPECT_EQ(pooled->stats().ops, reference->stats().ops);
}

// --- mon::CompiledPropertyCache -------------------------------------------

TEST(CompiledPropertyCache, CompilesOncePerKeyAndHandsOutStableEntries) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(({a, b}, &) << s, true)", ab);
  mon::CompiledPropertyCache cache;

  bool inserted = false;
  const mon::CompiledProperty& first = cache.get_or_compile(p, ab, {},
                                                            &inserted);
  EXPECT_TRUE(inserted);
  const mon::CompiledProperty& second = cache.get_or_compile(p, ab, {},
                                                             &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(&first, &second);          // stable reference, shared artifacts
  EXPECT_EQ(&first.plan(), &second.plan());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // A different backend is a different key (it changes the artifacts).
  mon::CompileOptions viapsl;
  viapsl.backend = mon::Backend::ViaPSL;
  const mon::CompiledProperty& forced = cache.get_or_compile(p, ab, viapsl);
  EXPECT_EQ(forced.chosen(), mon::Backend::ViaPSL);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CompiledPropertyCache, KeyIncludesNameBindingsAndOptions) {
  // Two alphabets interning the same names in different orders render the
  // same normalized text over different ids — the key must not alias them.
  spec::Alphabet ab1;
  const spec::Property p1 = loom::testing::parse("(a < b << s, true)", ab1);
  spec::Alphabet ab2;
  ab2.name("zzz");  // shift every later id
  const spec::Property p2 = loom::testing::parse("(a < b << s, true)", ab2);
  EXPECT_NE(mon::CompiledPropertyCache::key_of(p1, ab1, {}),
            mon::CompiledPropertyCache::key_of(p2, ab2, {}));

  mon::CompileOptions tight;
  tight.max_clauses = 7;
  EXPECT_NE(mon::CompiledPropertyCache::key_of(p1, ab1, {}),
            mon::CompiledPropertyCache::key_of(p1, ab1, tight));
  mon::CompileOptions artifact;
  artifact.with_viapsl_artifact = true;
  EXPECT_NE(mon::CompiledPropertyCache::key_of(p1, ab1, {}),
            mon::CompiledPropertyCache::key_of(p1, ab1, artifact));
  // Same property, same alphabet, same options: same key.
  EXPECT_EQ(mon::CompiledPropertyCache::key_of(p1, ab1, {}),
            mon::CompiledPropertyCache::key_of(p1, ab1, {}));
}

TEST(CompiledPropertyCache, RepeatedCampaignsSkipRecompilation) {
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
  opt.threads = 2;
  opt.shard_size = 1;
  const auto uncached = run_campaigns(ptrs, ab, opt);

  mon::CompiledPropertyCache cache;
  opt.plan_cache = &cache;
  const auto first = run_campaigns(ptrs, ab, opt);
  const auto second = run_campaigns(ptrs, ab, opt);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);

  for (std::size_t i = 0; i < 2; ++i) {
    // The cache is invisible in the semantic result and the report.
    EXPECT_TRUE(loom::testing::results_identical(first[i], uncached[i])) << i;
    EXPECT_TRUE(loom::testing::results_identical(second[i], uncached[i])) << i;
    EXPECT_EQ(second[i].report(ab), uncached[i].report(ab)) << i;
    // First campaign compiles (miss), every later one reuses (hit).
    EXPECT_EQ(first[i].compile_stats.plan_cache_misses, 1u) << i;
    EXPECT_EQ(first[i].compile_stats.plan_cache_hits, 0u) << i;
    EXPECT_EQ(first[i].compile_stats.plans_built, 1u) << i;
    EXPECT_EQ(second[i].compile_stats.plan_cache_hits, 1u) << i;
    EXPECT_EQ(second[i].compile_stats.plan_cache_misses, 0u) << i;
    EXPECT_EQ(second[i].compile_stats.plans_built, 0u) << i;
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

}  // namespace
}  // namespace loom::abv
