// MutationResult::position contract (mutate.hpp): position is the index of
// the first event at which the mutant may diverge from the source trace —
// the shared prefix below it is guaranteed element for element:
//
//     trace[0, position) == mutant[0, position)
//
// The checkpointed campaign engine restores monitor state from a snapshot
// taken at or before `position` and replays only the suffix, so this
// property is load-bearing: a mutant whose prefix silently differed from
// the valid trace would replay against the wrong monitor state.  Fuzzed
// over every mutation kind, several property shapes and many seeds, plus
// pinned per-kind placement checks.  The same prefix carries the oracle:
// a mutant's reference check resumes from the oracle ladder's floor rung,
// which must equal the full walk for every mutation kind.
#include <gtest/gtest.h>

#include <string>

#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "spec/attributes.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

constexpr MutationKind kKinds[] = {
    MutationKind::Drop, MutationKind::Duplicate, MutationKind::SwapAdjacent,
    MutationKind::EarlyTrigger, MutationKind::StallDeadline};

class MutationPosition : public ::testing::TestWithParam<const char*> {};

TEST_P(MutationPosition, PrefixBelowPositionIsSharedElementForElement) {
  spec::Alphabet ab;
  const spec::Property property = loom::testing::parse(GetParam(), ab);
  StimuliOptions sopt;
  sopt.rounds = 5;
  sopt.noise_permille = 150;

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    support::Rng gen_rng = support::Rng::stream(seed, 0);
    const spec::Trace valid = generate_valid(property, ab, gen_rng, sopt);
    for (const MutationKind kind : kKinds) {
      support::Rng rng = support::Rng::stream(seed, 13);
      for (int round = 0; round < 10; ++round) {
        const auto mutant = mutate(valid, kind, property, rng);
        if (!mutant) continue;
        const std::string what = std::string(to_string(kind)) + " seed=" +
                                 std::to_string(seed) + " round=" +
                                 std::to_string(round) + " position=" +
                                 std::to_string(mutant->position);
        // position stays inside both traces: a checkpoint floor computed
        // from it can always be replayed from.
        ASSERT_LE(mutant->position, valid.size()) << what;
        ASSERT_LE(mutant->position, mutant->trace.size()) << what;
        // The guaranteed shared prefix.
        for (std::size_t i = 0; i < mutant->position; ++i) {
          ASSERT_EQ(valid[i], mutant->trace[i])
              << what << " diverges inside the guaranteed prefix at " << i;
        }
        // And the mutation really did something at or after position: the
        // suffixes (or the lengths) differ.
        const bool suffix_differs = [&] {
          if (valid.size() != mutant->trace.size()) return true;
          for (std::size_t i = mutant->position; i < valid.size(); ++i) {
            if (!(valid[i] == mutant->trace[i])) return true;
          }
          return false;
        }();
        EXPECT_TRUE(suffix_differs) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Properties, MutationPosition,
    ::testing::Values("(n << i, true)",
                      "(({a, b, c}, &) << s, false)",
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

// The campaign's oracle resume, per mutation kind: record the oracle ladder
// on the valid trace, resolve each mutant's floor rung from its position
// exactly like the engine does, and resume there — verdict, error index
// and reason must equal the full walk.  Duplicate and StallDeadline shift
// the suffix's times, which the timed deadline checks read.
class MutationOracleResume
    : public ::testing::TestWithParam<std::tuple<const char*, MutationKind>> {
};

TEST_P(MutationOracleResume, FloorRungResumeEqualsFullWalk) {
  const auto [source, kind] = GetParam();
  spec::Alphabet ab;
  const spec::Property property = loom::testing::parse(source, ab);
  const spec::OrderingPlan plan =
      property.is_antecedent() ? spec::plan_antecedent(property.antecedent())
                               : spec::plan_timed(property.timed());
  StimuliOptions sopt;
  sopt.rounds = 6;
  sopt.noise_permille = 150;
  const auto end_of = [](const spec::Trace& t) {
    return t.empty() ? sim::Time::zero() : t.back().time;
  };

  std::size_t applied = 0, resumed = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    support::Rng gen_rng = support::Rng::stream(seed, 0);
    const spec::Trace valid = generate_valid(property, ab, gen_rng, sopt);
    for (const std::size_t stride : {1, 3, 32}) {
      const spec::RefLadder ladder = spec::record_reference_ladder(
          property, plan, valid, end_of(valid), stride);
      support::Rng rng = support::Rng::stream(seed, 7);
      for (int round = 0; round < 10; ++round) {
        const auto mutant = mutate(valid, kind, property, rng);
        if (!mutant) continue;
        ++applied;
        const std::size_t rungs =
            std::min(mutant->position / stride, ladder.rungs.size());
        if (rungs == 0) continue;
        ++resumed;
        const spec::RefResult full = spec::reference_check(
            property, plan, mutant->trace, end_of(mutant->trace));
        const spec::RefResult resumed_result = spec::resume_reference_check(
            property, plan, ladder, rungs - 1, mutant->trace,
            end_of(mutant->trace));
        const std::string what = std::string(to_string(kind)) + " seed=" +
                                 std::to_string(seed) + " stride=" +
                                 std::to_string(stride) + " position=" +
                                 std::to_string(mutant->position);
        EXPECT_EQ(resumed_result.verdict, full.verdict) << what;
        EXPECT_EQ(resumed_result.error_index, full.error_index) << what;
        EXPECT_EQ(resumed_result.reason, full.reason) << what;
      }
    }
  }
  if (kind == MutationKind::StallDeadline && property.is_antecedent()) {
    EXPECT_EQ(applied, 0u) << "an antecedent has no deadline to stall";
  } else {
    EXPECT_GT(resumed, 0u) << "no mutant had a floor rung";
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsByShape, MutationOracleResume,
    ::testing::Combine(
        ::testing::Values(
            "(n << i, true)", "(n[2,3] << i, false)",
            "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
            "(p[2,3] => q[1,4] < r, 10us)"),
        ::testing::ValuesIn(kKinds)));

TEST(MutationPositionPlacement, PinnedPerKindSemantics) {
  // Deterministic single-site traces pin the per-kind placement documented
  // in mutate.hpp (first *possible* divergence, not "the mutated event").
  spec::Alphabet ab;
  const spec::Property timed =
      loom::testing::parse("(p[1,1] => q[1,1] < r, 10us)", ab);
  const spec::Trace t = loom::testing::trace_of("p q r", ab);

  support::Rng rng(1);
  // Drop: the removed event's own index (its successor slides in there).
  for (int i = 0; i < 8; ++i) {
    const auto m = mutate(t, MutationKind::Drop, timed, rng);
    ASSERT_TRUE(m.has_value());
    ASSERT_LT(m->position, t.size());
    EXPECT_EQ(m->trace.size(), t.size() - 1);
    if (m->position + 1 < t.size()) {
      EXPECT_EQ(m->trace[m->position], t[m->position + 1]);
    }
  }
  // Duplicate: the inserted copy's index — one past the duplicated event,
  // so the shared prefix includes the original.
  for (int i = 0; i < 8; ++i) {
    const auto m = mutate(t, MutationKind::Duplicate, timed, rng);
    ASSERT_TRUE(m.has_value());
    ASSERT_GE(m->position, 1u);
    EXPECT_EQ(m->trace[m->position].name, t[m->position - 1].name);
    EXPECT_EQ(m->trace[m->position].time,
              t[m->position - 1].time + sim::Time::ps(1));
  }
  // EarlyTrigger: the inserted event's index.
  const spec::Property ante = loom::testing::parse("(n << i, true)", ab);
  const spec::Trace nt = loom::testing::trace_of("n i n i", ab);
  for (int i = 0; i < 8; ++i) {
    const auto m = mutate(nt, MutationKind::EarlyTrigger, ante, rng);
    ASSERT_TRUE(m.has_value());
    ASSERT_GE(m->position, 1u);
    EXPECT_EQ(m->trace[m->position].name, ab.name("i"));
  }
  // StallDeadline: the first time-shifted event's index.
  for (int i = 0; i < 8; ++i) {
    const auto m = mutate(t, MutationKind::StallDeadline, timed, rng);
    ASSERT_TRUE(m.has_value());
    ASSERT_GE(m->position, 1u);
    EXPECT_GT(m->trace[m->position].time, t[m->position].time);
    EXPECT_EQ(m->trace[m->position].name, t[m->position].name);
  }
}

}  // namespace
}  // namespace loom::abv
