// support::AllocCounter under the replacement operators of
// src/support/alloc_hooks.cpp (this target opts in via CMake): the tally
// moves with new/delete, Scope windows are per-thread, and — the
// regression the counters exist to guard — a warmed mutate_into scratch
// mutates without touching the heap at all.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "support/alloc_counter.hpp"
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

}  // namespace
}  // namespace loom::support
