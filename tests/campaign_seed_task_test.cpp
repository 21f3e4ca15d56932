// Lockdown of the seed task's forked replay (abv/campaign.cpp): a shard
// runs each of its seeds as one task, which walks the valid trace once
// and forks each invalid mutant's replay from the live monitor at the
// mutant's exact divergence position.  Every case below runs the
// engine against the literal Fig. 1 loop (tests/reference_campaign.hpp) —
// results_identical and report() text — and pins the forked-replay
// diagnostics to their definition, re-derived here from abv::mutate and
// the reference oracle: checkpoint_hits counts the invalid mutants forked
// from a saved state, events_skipped sums the positions they resumed from.
// The cases are the edges of the fork:
//   - a mutant at position 0 replays from event 0 (no fork);
//   - an edit at the last index forks after the whole trace, before finish;
//   - several mutants at one position share one saved state;
//   - stall-deadline tails that saturate at sim::Time::max();
//   - a valid trace the monitor violates: mutants past the violation fork
//     at their exact positions too;
//   - every layout of whole-seed shards, in process and across workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "reference_campaign.hpp"
#include "spec/reference.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

constexpr std::size_t kSlotsPerSeed = 6;  // valid phase + 5 mutation kinds

struct CampaignRun {
  CampaignResult result;
  std::string report;
};

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

sim::Time end_of(const spec::Trace& t) {
  return t.empty() ? sim::Time::zero() : t.back().time;
}

// The forks a default-layout campaign makes, from the literal loop: every
// invalid mutant, drawn with abv::mutate from its (seed, slot) stream.
struct Forks {
  std::size_t hits = 0;       // expected checkpoint_hits
  std::size_t skipped = 0;    // expected events_skipped
  std::size_t invalid = 0;
  std::size_t at_zero = 0;    // at position 0
  std::size_t at_end = 0;     // at the valid trace's size
  std::size_t shared = 0;     // sharing their position within their seed
  std::size_t saturated = 0;  // stall-deadline tails ending at Time::max()
  std::size_t violated_valid = 0;  // valid traces the monitor violates
  std::size_t past_violation = 0;  // forked after their walk violated
};

Forks expected_forks(const char* source, const CampaignOptions& opt) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(source, ab);
  const PropertyPlan plan = compile_property_plans({&p}, ab, opt)[0];
  Forks f;
  for (std::size_t s = 0; s < opt.seeds; ++s) {
    support::Rng valid_rng = support::Rng::stream(opt.first_seed + s, 0);
    const spec::Trace valid = generate_valid(p, ab, valid_rng, opt.stimuli);
    std::optional<std::size_t> violation;  // its event ordinal
    {
      auto monitor = plan.compiled.instantiate();
      for (const auto& ev : valid) monitor->observe(ev.name, ev.time);
      monitor->finish(end_of(valid));
      if (monitor->violation()) {
        ++f.violated_valid;
        violation = monitor->violation()->event_ordinal;
      }
    }
    std::vector<std::size_t> positions;  // of the seed's invalid mutants
    for (std::size_t k = 0; k < 5; ++k) {
      support::Rng rng = support::Rng::stream(opt.first_seed + s, k + 1);
      for (std::size_t m = 0; m < opt.mutants_per_kind; ++m) {
        const auto mutant =
            mutate(valid, static_cast<MutationKind>(k), p, rng);
        if (!mutant) continue;
        if (!spec::reference_check(p, mutant->trace, end_of(mutant->trace))
                 .rejected()) {
          continue;
        }
        positions.push_back(mutant->position);
        if (mutant->kind == MutationKind::StallDeadline &&
            end_of(mutant->trace) == sim::Time::max()) {
          ++f.saturated;
        }
      }
    }
    f.invalid += positions.size();
    for (const std::size_t at : positions) {
      if (at == 0) ++f.at_zero;
      if (at == valid.size()) ++f.at_end;
      if (std::count(positions.begin(), positions.end(), at) > 1) ++f.shared;
      if (opt.checkpoint_stride == 0 || at == 0) continue;
      // The walk saves at every invalid mutant's position, and the mutant
      // resumes there, whether or not the walk has violated by then.
      ++f.hits;
      f.skipped += at;
      if (violation && at > *violation) ++f.past_violation;
    }
  }
  return f;
}

// Runs `source` under `opt` on the engine (into `run`) and the reference:
// the same result and report, and the re-derived fork diagnostics.
Forks expect_forks_match(const char* source, const CampaignOptions& opt,
                         CampaignRun& run) {
  run = run_engine(source, opt);
  const CampaignRun ref = run_reference(source, opt);
  const std::string what = std::string(source) + " backend " +
                           mon::to_string(opt.backend) + " stride " +
                           std::to_string(opt.checkpoint_stride) +
                           " shard_seeds " + std::to_string(opt.shard_seeds) +
                           " workers " + std::to_string(opt.workers);
  EXPECT_TRUE(loom::testing::results_identical(run.result, ref.result))
      << what;
  EXPECT_EQ(run.report, ref.report) << what;
  const Forks f = expected_forks(source, opt);
  EXPECT_EQ(run.result.checkpoint_hits, f.hits) << what;
  EXPECT_EQ(run.result.events_skipped, f.skipped) << what;
  std::size_t invalid = 0;
  for (const MutationStats& m : run.result.mutation) invalid += m.invalid;
  EXPECT_EQ(invalid, f.invalid) << what;
  return f;
}

Forks expect_forks_match(const char* source, const CampaignOptions& opt) {
  CampaignRun run;
  return expect_forks_match(source, opt, run);
}

// Short traces of the simplest property: few positions, so mutants land
// on the first and the last index and share positions.
CampaignOptions short_options(mon::Backend backend) {
  CampaignOptions opt;
  opt.seeds = 4;
  opt.stimuli.rounds = 1;
  opt.stimuli.noise_permille = 0;
  opt.mutants_per_kind = 16;
  opt.backend = backend;
  return opt;
}

constexpr mon::Backend kForkBackends[] = {mon::Backend::Auto,
                                          mon::Backend::Drct};

TEST(CampaignSeedTask, AMutantAtPositionZeroReplaysFromEventZero) {
  for (const mon::Backend backend : kForkBackends) {
    const Forks f = expect_forks_match("(n << i, true)", short_options(backend));
    EXPECT_GT(f.at_zero, 0u);
    EXPECT_LT(f.hits, f.invalid);
  }
}

TEST(CampaignSeedTask, AnEditAtTheLastIndexForksBeforeFinish) {
  for (const mon::Backend backend : kForkBackends) {
    const Forks f = expect_forks_match("(n << i, true)", short_options(backend));
    EXPECT_GT(f.at_end, 0u);
  }
}

TEST(CampaignSeedTask, SeveralMutantsAtOnePositionShareItsSavedState) {
  for (const mon::Backend backend : kForkBackends) {
    for (const std::size_t stride : {std::size_t{1}, std::size_t{8}}) {
      CampaignOptions opt = short_options(backend);
      opt.checkpoint_stride = stride;
      const Forks f = expect_forks_match("(({a, b}, &) < c << i, true)", opt);
      EXPECT_GT(f.shared, 0u);
      EXPECT_GT(f.hits, 0u);
    }
  }
}

TEST(CampaignSeedTask, StallDeadlineTailsThatSaturate) {
  // A bound of 10^7 s: the stall shift 2·bound + 1 ns passes 2^64 ps, so
  // every stalled event sits at sim::Time::max().
  for (const mon::Backend backend : kForkBackends) {
    CampaignOptions opt;
    opt.seeds = 4;
    opt.stimuli.rounds = 2;
    opt.stimuli.noise_permille = 100;
    opt.mutants_per_kind = 8;
    opt.backend = backend;
    const Forks f = expect_forks_match("(p => q[1,2], 10000000s)", opt);
    EXPECT_GT(f.saturated, 0u);
    EXPECT_GT(f.hits, 0u);
  }
}

TEST(CampaignSeedTask, AValidTraceTheMonitorViolatesForksAtExactPositions) {
  // A 1 ps deadline: a noise event between p and q makes the generated
  // "valid" trace late, so the monitor violates it (the oracle agrees).
  // The paused walk's state holds the violation, so the mutants past it
  // fork at their exact positions like every other: checkpoint_hits
  // counts the invalid mutants at positions > 0 and events_skipped sums
  // their positions.
  CampaignOptions opt;
  opt.seeds = 6;
  opt.stimuli.rounds = 4;
  opt.stimuli.noise_permille = 500;
  opt.mutants_per_kind = 6;
  opt.backend = mon::Backend::Drct;
  const Forks f = expect_forks_match("(p => q, 1ps)", opt);
  EXPECT_GT(f.violated_valid, 0u);
  EXPECT_GT(f.past_violation, 0u);
  EXPECT_EQ(f.hits, f.invalid - f.at_zero);
}

TEST(CampaignSeedTask, EveryShardLayoutForksLikeTheReference) {
  // The automatic layout, one, two and three seeds per shard (three leaves
  // a short last shard of one) and one shard for everything, in process
  // and across two worker processes (one thread each, so no pool thread
  // exists when the workers fork).  A shard runs whole seeds, so each
  // layout forks exactly the reference's mutants — past a violation
  // included — and runs one seed pass per seed.
  const char* const sources[] = {
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
      "(p[2,3] => q[1,4] < r, 1ms)", "(p => q, 1ps)"};
  for (const char* source : sources) {
    CampaignOptions opt;
    opt.seeds = 4;
    opt.stimuli.rounds = 4;
    opt.stimuli.noise_permille = 100;
    opt.mutants_per_kind = 3;
    for (const std::size_t shard_seeds :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{100}}) {
      for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
        opt.shard_seeds = shard_seeds;
        opt.workers = workers;
        CampaignRun run;
        expect_forks_match(source, opt, run);
        EXPECT_EQ(run.result.trace_cache_misses, opt.seeds)
            << source << " shard_seeds " << shard_seeds;
        EXPECT_EQ(run.result.trace_cache_hits,
                  (kSlotsPerSeed - 1) * opt.seeds)
            << source << " shard_seeds " << shard_seeds;
      }
    }
  }
}

}  // namespace
}  // namespace loom::abv
