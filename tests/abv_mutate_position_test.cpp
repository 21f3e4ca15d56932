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

#include <iterator>
#include <span>
#include <string>
#include <vector>

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

// The sites overload of mutate_into, differentially: from the ascending
// alphabet-event indices (computed here independently of the library), it
// must match the NameSet overload and mutate() call for call — return
// value, kind, position, mutant bytes and Rng consumption (the next draw
// after the call) — into a scratch left dirty by an unrelated call.  Kinds
// that never read sites must also ignore the list: an empty one (what the
// campaign engine passes them) gives the same mutant.
class MutationSites : public ::testing::TestWithParam<const char*> {};

std::vector<std::size_t> alphabet_sites(const spec::Trace& trace,
                                        const spec::Property& property) {
  const spec::NameSet alphabet = property.alphabet();
  std::vector<std::size_t> sites;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    if (alphabet.test(trace[k].name)) sites.push_back(k);
  }
  return sites;
}

// One call through each entry point from equal Rng states; the scratch
// targets arrive dirty (`dirty` was mutated from another trace first).
// Advances `rng` past the call and returns whether the mutation applied.
bool expect_entry_points_agree(const spec::Trace& trace,
                               const spec::Property& property,
                               const std::vector<std::size_t>& sites,
                               MutationKind kind, support::Rng& rng,
                               const MutationResult& dirty,
                               const std::string& what) {
  support::Rng by_sites = rng, by_names = rng, by_fresh = rng;
  MutationResult sites_out = dirty, names_out = dirty;
  const std::span<const std::size_t> given =
      mutation_reads_sites(kind) ? std::span<const std::size_t>(sites)
                                 : std::span<const std::size_t>();
  const bool sites_ok =
      mutate_into(trace, kind, property, given, by_sites, sites_out);
  const bool names_ok = mutate_into(trace, kind, property,
                                    property.alphabet(), by_names, names_out);
  const auto fresh = mutate(trace, kind, property, by_fresh);
  rng = by_fresh;

  EXPECT_EQ(sites_ok, names_ok) << what;
  EXPECT_EQ(sites_ok, fresh.has_value()) << what;
  if (sites_ok != names_ok || sites_ok != fresh.has_value()) return false;
  const std::uint64_t next = by_fresh.next();
  EXPECT_EQ(by_sites.next(), next) << what << ": Rng consumption differs";
  EXPECT_EQ(by_names.next(), next) << what << ": Rng consumption differs";
  EXPECT_EQ(sites_out.kind, kind) << what;
  EXPECT_EQ(names_out.kind, kind) << what;
  if (!sites_ok) return false;
  EXPECT_EQ(sites_out.kind, fresh->kind) << what;
  EXPECT_EQ(sites_out.position, fresh->position) << what;
  EXPECT_EQ(names_out.position, fresh->position) << what;
  EXPECT_EQ(sites_out.trace, fresh->trace) << what;
  EXPECT_EQ(names_out.trace, fresh->trace) << what;
  return true;
}

TEST_P(MutationSites, SitesOverloadEqualsNameSetOverloadAndMutate) {
  spec::Alphabet ab;
  const spec::Property property = loom::testing::parse(GetParam(), ab);
  const spec::Property other =
      loom::testing::parse("(p[2,3] => q[1,4] < r, 10us)", ab);
  StimuliOptions sopt;
  sopt.rounds = 5;
  sopt.noise_permille = 150;

  // The unrelated earlier call that leaves the scratch dirty.
  support::Rng other_rng = support::Rng::stream(99, 0);
  const spec::Trace other_trace = generate_valid(other, ab, other_rng, sopt);
  MutationResult dirty;
  ASSERT_TRUE(mutate_into(other_trace, MutationKind::Duplicate, other,
                          other_rng, dirty));

  // Per kind: Drop, Duplicate and SwapAdjacent read sites and must each
  // apply somewhere, so a predicate that wrongly hands one an empty list
  // cannot pass unseen.
  std::size_t applied[std::size(kKinds)] = {};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    support::Rng gen_rng = support::Rng::stream(seed, 0);
    const spec::Trace valid = generate_valid(property, ab, gen_rng, sopt);
    const std::vector<std::size_t> sites = alphabet_sites(valid, property);
    for (std::size_t i = 0; i < std::size(kKinds); ++i) {
      const MutationKind kind = kKinds[i];
      support::Rng rng = support::Rng::stream(seed, 21);
      for (int round = 0; round < 10; ++round) {
        const std::string what = std::string(to_string(kind)) + " seed=" +
                                 std::to_string(seed) + " round=" +
                                 std::to_string(round);
        if (expect_entry_points_agree(valid, property, sites, kind, rng,
                                      dirty, what)) {
          ++applied[i];
        }
      }
    }
  }
  // kKinds lists the three site-reading kinds first.
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    EXPECT_EQ(mutation_reads_sites(kKinds[i]), i < 3) << to_string(kKinds[i]);
    if (i < 3) EXPECT_GT(applied[i], 0u) << to_string(kKinds[i]);
  }
}

TEST_P(MutationSites, EmptyTraceAndTraceWithoutAlphabetEvents) {
  spec::Alphabet ab;
  const spec::Property property = loom::testing::parse(GetParam(), ab);
  // Names outside every property of the suite.
  const spec::Trace foreign = loom::testing::trace_of("zz yy zz xx", ab);
  const spec::Trace empty;
  ASSERT_TRUE(alphabet_sites(foreign, property).empty());

  MutationResult dirty;
  support::Rng dirty_rng(5);
  ASSERT_TRUE(mutate_into(foreign, MutationKind::EarlyTrigger, property,
                          dirty_rng, dirty));
  for (const MutationKind kind : kKinds) {
    support::Rng rng = support::Rng::stream(3, 4);
    for (int round = 0; round < 10; ++round) {
      const std::string round_tag = std::string(to_string(kind)) +
                                    " round=" + std::to_string(round);
      (void)expect_entry_points_agree(empty, property, {}, kind, rng, dirty,
                                      "empty " + round_tag);
      (void)expect_entry_points_agree(foreign, property, {}, kind, rng,
                                      dirty, "foreign " + round_tag);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Properties, MutationSites,
    ::testing::Values("(n << i, true)",
                      "(({a, b, c}, &) << s, false)",
                      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
                      "(p[2,3] => q[1,4] < r, 10us)"));

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
