// Lockdown of the seed task's forked replay (abv/campaign.cpp): a shard
// runs the units it holds of one seed as one task, which walks the valid
// trace once and forks each invalid mutant's replay from the live monitor
// at the mutant's exact divergence position.  Every case below runs the
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
//   - a valid trace the Vm monitor violates, so its compact rungs are
//     refused and later mutants fall back to the last saved state (or to
//     event 0), while Drct's Snapshots hold the violation;
//   - shard sizes that split a seed, in process and across workers;
//   - the default layout never splits a seed.
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
  std::size_t fallbacks = 0;  // resumed below their own position
  std::size_t violated_valid = 0;  // valid traces the monitor violates
};

Forks expected_forks(const char* source, const CampaignOptions& opt) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(source, ab);
  const PropertyPlan plan = compile_property_plans({&p}, ab, opt)[0];
  // A compact rung holds no violation: a Vm walk saves nothing once it has
  // violated.
  const bool compact = plan.compiled.chosen() == mon::Backend::Vm;
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
      // The walk saves at every invalid mutant's position; a save after
      // the violating event is refused, and the mutant resumes from the
      // last position at or before that event (0: none, from event 0).
      std::size_t resume = at;
      if (compact && violation && at > *violation) {
        resume = 0;
        for (const std::size_t q : positions) {
          if (q <= *violation) resume = std::max(resume, q);
        }
        ++f.fallbacks;
      }
      if (resume == 0) continue;
      ++f.hits;
      f.skipped += resume;
    }
  }
  return f;
}

// Runs `source` under `opt` on the engine (into `run`) and the reference:
// the same result and report, and the re-derived fork diagnostics — in the
// default layout, or wherever no walk refuses a save (then the forks do
// not depend on which of a seed's mutants share a shard).
Forks expect_forks_match(const char* source, const CampaignOptions& opt,
                         CampaignRun& run) {
  run = run_engine(source, opt);
  const CampaignRun ref = run_reference(source, opt);
  const std::string what = std::string(source) + " backend " +
                           mon::to_string(opt.backend) + " stride " +
                           std::to_string(opt.checkpoint_stride) +
                           " shard_size " + std::to_string(opt.shard_size) +
                           " workers " + std::to_string(opt.workers);
  EXPECT_TRUE(loom::testing::results_identical(run.result, ref.result))
      << what;
  EXPECT_EQ(run.report, ref.report) << what;
  const Forks f = expected_forks(source, opt);
  if (opt.shard_size == 0 || f.fallbacks == 0) {
    EXPECT_EQ(run.result.checkpoint_hits, f.hits) << what;
    EXPECT_EQ(run.result.events_skipped, f.skipped) << what;
  }
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
                                          mon::Backend::Drct,
                                          mon::Backend::Vm};

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

TEST(CampaignSeedTask, AValidTraceTheVmMonitorViolatesFallsBack) {
  // A 1 ps deadline: a noise event between p and q makes the generated
  // "valid" trace late, so the monitor violates it (the oracle agrees).
  // From the violation on, a Vm walk's compact rungs are refused and
  // later mutants fork from the last saved state or replay from event 0;
  // Drct's Snapshots hold the violation and fork everywhere.
  CampaignOptions opt;
  opt.seeds = 6;
  opt.stimuli.rounds = 4;
  opt.stimuli.noise_permille = 500;
  opt.mutants_per_kind = 6;
  for (const mon::Backend backend : {mon::Backend::Vm, mon::Backend::Drct}) {
    opt.backend = backend;
    const Forks f = expect_forks_match("(p => q, 1ps)", opt);
    EXPECT_GT(f.violated_valid, 0u);
    if (backend == mon::Backend::Vm) {
      EXPECT_GT(f.fallbacks, 0u);
    } else {
      EXPECT_EQ(f.fallbacks, 0u);
    }
  }
}

TEST(CampaignSeedTask, SplitSeedsRepeatTheSeedPassPerShard) {
  // Explicit shard sizes are honoured: sizes 1, 4 and 7 split seeds, in
  // process and across two worker processes (one thread each, so no pool
  // thread exists when the workers fork), and each shard repeats the seed
  // pass for its share.  The seed-pass split counts one miss per (shard,
  // seed) pair.
  const char* const sources[] = {"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                                 "(p[2,3] => q[1,4] < r, 1ms)"};
  for (const char* source : sources) {
    CampaignOptions opt;
    opt.seeds = 4;
    opt.stimuli.rounds = 4;
    opt.stimuli.noise_permille = 100;
    opt.mutants_per_kind = 3;
    const std::size_t units = opt.seeds * kSlotsPerSeed;
    for (const std::size_t shard_size :
         {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
      std::size_t passes = 0;
      for (std::size_t begin = 0; begin < units; begin += shard_size) {
        const std::size_t end = std::min(units, begin + shard_size);
        passes += (end - 1) / kSlotsPerSeed - begin / kSlotsPerSeed + 1;
      }
      for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
        opt.shard_size = shard_size;
        opt.workers = workers;
        CampaignRun run;
        const Forks f = expect_forks_match(source, opt, run);
        EXPECT_EQ(f.fallbacks, 0u);
        EXPECT_EQ(run.result.trace_cache_misses, passes)
            << source << " shard_size " << shard_size;
        EXPECT_EQ(run.result.trace_cache_hits, units - passes)
            << source << " shard_size " << shard_size;
      }
    }
  }
}

// One seed pass per seed and property, serving the seed's five other
// units: the default layout put every seed in one shard.
void expect_whole_seeds(const std::vector<const char*>& sources,
                        const CampaignOptions& opt) {
  spec::Alphabet ab;
  std::vector<spec::Property> props;
  for (const char* s : sources) props.push_back(loom::testing::parse(s, ab));
  std::vector<const spec::Property*> ptrs;
  for (const auto& p : props) ptrs.push_back(&p);
  const auto results = run_campaigns(ptrs, ab, opt);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].trace_cache_misses, opt.seeds)
        << sources[i] << " threads " << opt.threads;
    EXPECT_EQ(results[i].trace_cache_hits, (kSlotsPerSeed - 1) * opt.seeds)
        << sources[i] << " threads " << opt.threads;
  }
}

TEST(CampaignSeedTask, TheDefaultLayoutNeverSplitsASeed) {
  // The perfbench shapes (run in process: the layout does not depend on
  // the workers knob) and a 5-seed campaign, whose 30 units per property
  // divide into no whole number of seeds per shard at most thread counts.
  const char* const antecedent =
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)";
  const char* const chain = "(n1 => n2 < n3 < n4, 1ms)";
  CampaignOptions longo;  // mutants_long
  longo.seeds = 4;
  longo.stimuli.rounds = 64;
  longo.stimuli.noise_permille = 100;
  longo.mutants_per_kind = 32;
  longo.threads = 1;
  expect_whole_seeds({antecedent, chain}, longo);

  CampaignOptions wide;  // seeds_wide
  wide.seeds = 64;
  wide.stimuli.rounds = 16;
  wide.stimuli.noise_permille = 100;
  wide.mutants_per_kind = 1;
  wide.threads = 4;
  expect_whole_seeds(
      {"(({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)",
       antecedent, "(p[2,3] => q[1,4] < r, 1ms)", "(n << i, true)"},
      wide);

  CampaignOptions workers;  // workers_short, in process
  workers.seeds = 8;
  workers.stimuli.rounds = 8;
  workers.stimuli.noise_permille = 100;
  workers.mutants_per_kind = 8;
  workers.threads = 1;
  expect_whole_seeds({antecedent, chain}, workers);

  CampaignOptions five;
  five.seeds = 5;
  five.stimuli.rounds = 2;
  five.mutants_per_kind = 2;
  for (const std::size_t threads : {1, 2, 3, 4, 5}) {
    five.threads = threads;
    expect_whole_seeds({"(n << i, true)"}, five);
    expect_whole_seeds({"(n << i, true)", chain, antecedent}, five);
  }
}

}  // namespace
}  // namespace loom::abv
