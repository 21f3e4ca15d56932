// support::AllocCounter under the replacement operators of
// src/support/alloc_hooks.cpp (this target opts in via CMake): the tally
// moves with new/delete, Scope windows are per-thread, and — the
// regressions the counters exist to guard — a warmed mutate_into scratch
// mutates without touching the heap at all, and a warmed campaign's
// per-mutant loop (mutate, oracle, restore, replay, finish) allocates
// nothing, rejected and violating mutants included, and neither does a
// warmed ThreadPool::for_each_index call on its caller's thread.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "abv/campaign.hpp"
#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "mon/compiled.hpp"
#include "mon/timed_monitor.hpp"
#include "psl/clause_monitor.hpp"
#include "spec/attributes.hpp"
#include "support/alloc_counter.hpp"
#include "support/thread_pool.hpp"
#include "testing.hpp"

namespace loom::support {
namespace {

TEST(AllocCounter, HooksAreLinkedIntoThisBinary) {
  EXPECT_TRUE(AllocCounter::hooks_linked());
}

TEST(AllocCounter, ScopeSeesThisThreadsAllocations) {
  AllocCounter::Scope scope;
  {
    std::vector<std::uint64_t> v;
    v.reserve(1024);
    EXPECT_GE(scope.allocs(), 1u);
    EXPECT_GE(scope.bytes(), 1024u * sizeof(std::uint64_t));
  }
  EXPECT_GE(scope.frees(), 1u);
}

TEST(AllocCounter, TalliesAreThreadLocal) {
  AllocCounter::Scope scope;
  const std::uint64_t before = scope.allocs();
  std::thread worker([] {
    AllocCounter::Scope inner;
    std::vector<int> v(4096, 7);
    EXPECT_GE(inner.allocs(), 1u);
  });
  worker.join();
  // The worker's vector never shows up in this thread's window (the join
  // machinery itself allocates nothing on this side with libstdc++; allow
  // the thread object's control block, created before the window? no — it
  // was created inside the window, so tolerate exactly that).
  EXPECT_LE(scope.allocs() - before, 4u);
}

TEST(AllocCounter, WarmedMutateIntoScratchIsAllocationFree) {
  // The zero-allocation steady state, as a hard guarantee rather than a
  // benchmark printout: after one warming call per mutation kind, every
  // further mutate_into into the same scratch performs zero heap
  // allocations — any regression (a stray copy, a vector regrowth, a
  // diagnostic string) fails this test.
  spec::Alphabet ab;
  const spec::Property property = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const spec::NameSet alphabet = property.alphabet();
  abv::StimuliOptions sopt;
  sopt.rounds = 8;
  support::Rng gen = support::Rng::stream(3, 0);
  const spec::Trace valid = abv::generate_valid(property, ab, gen, sopt);

  constexpr abv::MutationKind kKinds[] = {
      abv::MutationKind::Drop, abv::MutationKind::Duplicate,
      abv::MutationKind::SwapAdjacent, abv::MutationKind::EarlyTrigger,
      abv::MutationKind::StallDeadline};

  abv::MutationResult scratch;
  support::Rng rng = support::Rng::stream(3, 1);
  for (const auto kind : kKinds) {  // warm the buffer + the site index
    (void)abv::mutate_into(valid, kind, property, alphabet, rng, scratch);
  }

  AllocCounter::Scope scope;
  std::size_t applied = 0;
  for (int round = 0; round < 16; ++round) {
    for (const auto kind : kKinds) {
      if (abv::mutate_into(valid, kind, property, alphabet, rng, scratch)) {
        ++applied;
      }
    }
  }
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(scope.allocs(), 0u) << "steady-state mutate_into touched the heap";
}

TEST(AllocCounter, WarmedSitesOverloadScratchIsAllocationFree) {
  // The campaign engine's form: the site list is computed once per trace
  // and every mutation reads it, so once the output buffer is warm no
  // kind touches the heap.
  spec::Alphabet ab;
  const spec::Property property = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  abv::StimuliOptions sopt;
  sopt.rounds = 8;
  support::Rng gen = support::Rng::stream(4, 0);
  const spec::Trace valid = abv::generate_valid(property, ab, gen, sopt);
  std::vector<std::size_t> sites;
  abv::mutation_sites_into(valid, property.alphabet(), sites);
  ASSERT_FALSE(sites.empty());

  constexpr abv::MutationKind kKinds[] = {
      abv::MutationKind::Drop, abv::MutationKind::Duplicate,
      abv::MutationKind::SwapAdjacent, abv::MutationKind::EarlyTrigger,
      abv::MutationKind::StallDeadline};

  abv::MutationResult scratch;
  support::Rng rng = support::Rng::stream(4, 1);
  for (const auto kind : kKinds) {  // warm the output buffer
    (void)abv::mutate_into(valid, kind, property, sites, rng, scratch);
  }

  AllocCounter::Scope scope;
  std::size_t applied = 0;
  for (int round = 0; round < 16; ++round) {
    for (const auto kind : kKinds) {
      if (abv::mutate_into(valid, kind, property, sites, rng, scratch)) {
        ++applied;
      }
    }
  }
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(scope.allocs(), 0u)
      << "steady-state sites-overload mutate_into touched the heap";
}

// The allocations of one warmed serial campaign over `properties` at
// `mutants_per_kind` — all on this thread, since a one-thread campaign runs
// its shards inline.
std::uint64_t campaign_allocs(
    const std::vector<const spec::Property*>& properties, spec::Alphabet& ab,
    mon::Backend backend, std::size_t mutants_per_kind) {
  abv::CampaignOptions o;
  o.seeds = 4;
  o.stimuli.rounds = 64;
  o.stimuli.noise_permille = 100;
  o.threads = 1;
  o.backend = backend;
  o.first_seed = 41;
  o.mutants_per_kind = 64;  // warm every pooled buffer at the larger size
  (void)abv::run_campaigns(properties, ab, o);
  o.mutants_per_kind = mutants_per_kind;
  AllocCounter::Scope scope;
  const auto results = abv::run_campaigns(properties, ab, o);
  const std::uint64_t allocs = scope.allocs();
  std::size_t detected = 0;
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok()) << r.report(ab);
    for (const auto& m : r.mutation) detected += m.detected;
  }
  EXPECT_GT(detected, 0u);  // violating mutants ran through the loop
  return allocs;
}

TEST(AllocCounter, WarmedMutantLoopIsAllocationFree) {
  // Once warm, a campaign's allocations are its fixed per-campaign and
  // per-seed work (traces, ladders, results): eight times the mutants
  // cost no extra allocation, so the per-mutant loop — mutate, oracle,
  // restore, replay, finish, with every rejection and violation recorded
  // as a reason value — touches the heap zero times.  The timed chain's
  // deadline reasons carry times.
  spec::Alphabet ab;
  const spec::Property antecedent = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const spec::Property chain =
      loom::testing::parse("(n1 => n2 < n3 < n4, 1ms)", ab);
  const spec::Property ranged =
      loom::testing::parse("(p[2,3] => q[1,4] < r, 10us)", ab);
  const std::vector<const spec::Property*> properties = {&antecedent, &chain,
                                                         &ranged};
  for (const auto backend : {mon::Backend::Auto, mon::Backend::Drct}) {
    const std::uint64_t few = campaign_allocs(properties, ab, backend, 8);
    const std::uint64_t many = campaign_allocs(properties, ab, backend, 64);
    EXPECT_EQ(few, many) << mon::to_string(backend)
                         << ": the per-mutant loop allocated";
  }
}

// The allocations of one warmed serial seeds_wide-shaped campaign at
// `seeds` seeds.
std::uint64_t seeds_wide_allocs(std::size_t seeds) {
  spec::Alphabet ab;
  const spec::Property set_up = loom::testing::parse(
      "(({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)", ab);
  const spec::Property antecedent = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  const spec::Property grid =
      loom::testing::parse("(p[2,3] => q[1,4] < r, 1ms)", ab);
  const spec::Property single = loom::testing::parse("(n << i, true)", ab);
  const std::vector<const spec::Property*> properties = {&set_up, &antecedent,
                                                         &grid, &single};
  abv::CampaignOptions o;
  o.seeds = 64;  // warm every buffer at the larger size
  o.stimuli.rounds = 16;
  o.stimuli.noise_permille = 100;
  o.mutants_per_kind = 1;
  o.threads = 1;
  (void)abv::run_campaigns(properties, ab, o);
  o.seeds = seeds;
  AllocCounter::Scope scope;
  const auto results = abv::run_campaigns(properties, ab, o);
  const std::uint64_t allocs = scope.allocs();
  for (const auto& r : results) EXPECT_TRUE(r.ok()) << r.report(ab);
  return allocs;
}

TEST(AllocCounter, WarmedCampaignAllocationsDoNotGrowWithSeeds) {
  // Nothing about a seed is heap-allocated: the trace, the oracle ladder,
  // the edits, the site list, the fork state and the generation buffers
  // are the thread's scratch capacity.  One thread, so the default layout
  // gives each property one shard at any seed count, and the per-shard
  // and per-campaign allocations are the same at 8 seeds and at 64.
  EXPECT_EQ(seeds_wide_allocs(8), seeds_wide_allocs(64))
      << "a seed task allocated";
}

TEST(AllocCounter, RejectingResumedOracleAndViolatingDrctReplayAllocateNothing) {
  // The two halves of one detected mutant, each warmed once and then
  // repeated under a Scope: the oracle resumes from its ladder and
  // rejects, and a Drct monitor forked from the valid walk at the mutant's
  // position replays the suffix and finishes violated — once from the
  // walk's Snapshot, restored into a pooled instance, and once forked from
  // the paused walker itself (Monitor::fork_from, the engine's form).
  spec::Alphabet ab;
  const spec::Property p =
      loom::testing::parse("(p[2,3] => q[1,4] < r, 10us)", ab);
  mon::CompileOptions opt;
  opt.backend = mon::Backend::Drct;
  const mon::CompiledProperty compiled =
      mon::CompiledProperty::compile(p, ab, opt);
  abv::StimuliOptions sopt;
  sopt.rounds = 16;
  support::Rng gen = support::Rng::stream(5, 0);
  const spec::Trace valid = abv::generate_valid(p, ab, gen, sopt);
  constexpr std::size_t kStride = 8;
  const sim::Time valid_end = valid.back().time;
  const spec::RefLadder oracle = spec::record_reference_ladder(
      p, compiled.plan(), valid, valid_end, kStride);

  abv::MutationResult mutant;
  support::Rng rng = support::Rng::stream(5, 1);
  std::size_t checked = 0;
  auto walker = compiled.instantiate();
  auto drct = compiled.instantiate();
  auto forked = compiled.instantiate();
  ASSERT_NE(dynamic_cast<mon::TimedImplicationMonitor*>(drct.get()), nullptr);
  mon::Snapshot snap;
  for (int draw = 0; draw < 200 && checked < 8; ++draw) {
    if (!abv::mutate_into(valid, abv::MutationKind::SwapAdjacent, p,
                          compiled.alphabet(), rng, mutant)) {
      continue;
    }
    const sim::Time end = mutant.trace.back().time;
    const std::size_t at = mutant.position;
    if (at == 0) continue;
    const auto check = [&] {
      return spec::resume_reference_check(
          p, compiled.plan(), oracle,
          std::min(at / kStride, oracle.rungs.size()), mutant.trace, end,
          mutant.aligned);
    };
    const auto replay = [&] {
      drct->restore(snap);
      drct->observe_batch(mutant.trace.data() + at,
                          mutant.trace.data() + mutant.trace.size());
      drct->finish(end);
      return drct->verdict();
    };
    const auto fork_replay = [&] {
      forked->fork_from(*walker);
      forked->observe_batch(mutant.trace.data() + at,
                            mutant.trace.data() + mutant.trace.size());
      forked->finish(end);
      return forked->verdict();
    };
    if (!check().rejected()) continue;
    walker->reset();
    walker->observe_batch(valid.data(), valid.data() + at);
    walker->snapshot(snap);
    ASSERT_EQ(replay(), mon::Verdict::Violated);  // warm
    ASSERT_EQ(fork_replay(), mon::Verdict::Violated);
    AllocCounter::Scope scope;
    EXPECT_TRUE(check().rejected());
    walker->snapshot(snap);  // a warmed buffer re-snapshots in place
    EXPECT_EQ(replay(), mon::Verdict::Violated);
    EXPECT_EQ(scope.allocs(), 0u) << "mutant at position " << mutant.position;
    AllocCounter::Scope fork_scope;
    EXPECT_EQ(fork_replay(), mon::Verdict::Violated);
    EXPECT_EQ(fork_scope.allocs(), 0u)
        << "fork of the mutant at position " << mutant.position;
    ++checked;
  }
  EXPECT_EQ(checked, 8u);
}

TEST(AllocCounter, WarmedViaPslForkAndReplayAllocateNothing) {
  // The fork leg on the clause network: a ViaPSL instance forked from the
  // valid walk paused at each mutant's position, warmed by one fork and
  // replay, forks and replays the suffix again without touching the heap
  // — its armed bits and range-seen sets copy in place, and a conjunct
  // violation renders its clause text into the buffer it already holds.
  spec::Alphabet ab;
  const spec::Property p =
      loom::testing::parse("(p[2,3] => q[1,4] < r, 10us)", ab);
  mon::CompileOptions opt;
  opt.backend = mon::Backend::ViaPSL;
  const mon::CompiledProperty compiled =
      mon::CompiledProperty::compile(p, ab, opt);
  abv::StimuliOptions sopt;
  sopt.rounds = 16;
  support::Rng gen = support::Rng::stream(5, 0);
  const spec::Trace valid = abv::generate_valid(p, ab, gen, sopt);

  abv::MutationResult mutant;
  support::Rng rng = support::Rng::stream(5, 1);
  std::size_t checked = 0;
  std::size_t conjuncts = 0;
  auto walker = compiled.instantiate();
  auto forked = compiled.instantiate();
  ASSERT_NE(dynamic_cast<psl::ClauseMonitor*>(forked.get()), nullptr);
  for (int draw = 0; draw < 200 && checked < 8; ++draw) {
    if (!abv::mutate_into(valid, abv::MutationKind::SwapAdjacent, p,
                          compiled.alphabet(), rng, mutant)) {
      continue;
    }
    const sim::Time end = mutant.trace.back().time;
    const std::size_t at = mutant.position;
    if (at == 0) continue;
    const auto fork_replay = [&] {
      forked->fork_from(*walker);
      forked->observe_batch(mutant.trace.data() + at,
                            mutant.trace.data() + mutant.trace.size());
      forked->finish(end);
      return forked->verdict();
    };
    walker->reset();
    walker->observe_batch(valid.data(), valid.data() + at);
    const mon::Verdict warm = fork_replay();
    AllocCounter::Scope scope;
    EXPECT_EQ(fork_replay(), warm);
    EXPECT_EQ(scope.allocs(), 0u)
        << "fork of the mutant at position " << mutant.position;
    if (warm == mon::Verdict::Violated &&
        forked->violation()->reason.code == spec::ReasonCode::PslConjunct) {
      ++conjuncts;
    }
    ++checked;
  }
  EXPECT_EQ(checked, 8u);
  EXPECT_GT(conjuncts, 0u);
}

TEST(ThreadPool, AWarmedCallAllocatesNothing) {
  // A batch lives in its caller's frame and helpers join it in place: with
  // the body built beforehand, a call — helpers enlisted or not — costs the
  // caller's thread no heap allocation.
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  const std::function<void(std::size_t)> body = [&sum](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  };
  pool.for_each_index(64, body, 3);  // warm-up: workers started
  sum = 0;
  AllocCounter::Scope scope;
  for (int round = 0; round < 20; ++round) pool.for_each_index(64, body, 3);
  EXPECT_EQ(scope.allocs(), 0u);
  EXPECT_EQ(sum.load(), 20u * (64u * 63u / 2));
}

}  // namespace
}  // namespace loom::support
