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
//
// MutationResult::aligned is the other end of the edit: past it the
// mutant is the source trace again, re-indexed by the size change δ and
// re-timed by the end-time change τ — where the oracle's walk may rejoin
// the valid trace's and stop.  Fuzzed and pinned per kind the same way.
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

sim::Time end_of(const spec::Trace& t) {
  return t.empty() ? sim::Time::zero() : t.back().time;
}

// The aligned contract (mutate.hpp), including each kind's own value.
void expect_aligned(const spec::Trace& trace, const MutationResult& m,
                    const std::string& what) {
  ASSERT_GE(m.aligned, m.position) << what;
  ASSERT_LE(m.aligned, m.trace.size()) << what;
  // δ in modular size_t arithmetic; j - delta is the source index.
  const std::size_t delta = m.trace.size() - trace.size();
  for (std::size_t j = m.aligned; j < m.trace.size(); ++j) {
    const spec::TimedEvent& source = trace[j - delta];
    ASSERT_EQ(m.trace[j].name, source.name) << what << " at " << j;
    // mutant time − source time == τ, kept exact for either sign of τ.
    ASSERT_EQ(m.trace[j].time + end_of(trace), source.time + end_of(m.trace))
        << what << " at " << j;
  }
  switch (m.kind) {
    case MutationKind::Drop:
    case MutationKind::StallDeadline:
      EXPECT_EQ(m.aligned, m.position) << what;
      break;
    case MutationKind::Duplicate:
    case MutationKind::EarlyTrigger:
      EXPECT_EQ(m.aligned, m.position + 1) << what;
      break;
    case MutationKind::SwapAdjacent:
      // One past the second swapped event, which now holds another name.
      ASSERT_GT(m.aligned, m.position + 1) << what;
      EXPECT_NE(m.trace[m.aligned - 1].name, trace[m.aligned - 1].name)
          << what;
      break;
  }
}

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
        expect_aligned(valid, *mutant, what);
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
// exactly like the engine does, and resume there — and from the initial
// state — told the mutant's aligned index: verdict, error index and reason
// must equal the full walk.  Duplicate, EarlyTrigger and StallDeadline can
// shift the suffix's times, which the timed deadline checks read.  A walk
// told the aligned index never steps more events than one told nothing
// (aligned = the mutant's size); it steps fewer exactly when it rejoined.

constexpr const char* kOracleShapes[] = {
    "(n << i, true)", "(n[2,3] << i, false)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(p[2,3] => q[1,4] < r, 10us)", "(a => b[1,3], 15ns)"};

struct OracleTally {
  std::size_t applied = 0;
  std::size_t resumed = 0;   // mutants with a floor rung
  std::size_t rejoined = 0;  // resumes that stopped where the walk rejoined
};

// Resumes each of `rounds` mutants of every seed's valid trace from the
// initial state and from its floor rung, told and untold, against the
// full walk.
void check_oracle_resume(const char* source, MutationKind kind,
                         std::uint64_t seeds,
                         std::initializer_list<std::size_t> strides,
                         int rounds, OracleTally& tally) {
  spec::Alphabet ab;
  const spec::Property property = loom::testing::parse(source, ab);
  const spec::OrderingPlan plan =
      property.is_antecedent() ? spec::plan_antecedent(property.antecedent())
                               : spec::plan_timed(property.timed());
  StimuliOptions sopt;
  sopt.rounds = 6;
  sopt.noise_permille = 150;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    support::Rng gen_rng = support::Rng::stream(seed, 0);
    const spec::Trace valid = generate_valid(property, ab, gen_rng, sopt);
    for (const std::size_t stride : strides) {
      const spec::RefLadder ladder = spec::record_reference_ladder(
          property, plan, valid, end_of(valid), stride);
      support::Rng rng = support::Rng::stream(seed, 7);
      for (int round = 0; round < rounds; ++round) {
        const auto mutant = mutate(valid, kind, property, rng);
        if (!mutant) continue;
        ++tally.applied;
        const spec::Trace& trace = mutant->trace;
        const spec::RefResult full =
            spec::reference_check(property, plan, trace, end_of(trace));
        const std::size_t floor =
            std::min(mutant->position / stride, ladder.rungs.size());
        if (floor > 0) ++tally.resumed;
        for (const std::size_t from : {std::size_t{0}, floor}) {
          const std::string what =
              std::string(source) + " " + to_string(kind) +
              " seed=" + std::to_string(seed) +
              " stride=" + std::to_string(stride) +
              " position=" + std::to_string(mutant->position) +
              " aligned=" + std::to_string(mutant->aligned) +
              " floor=" + std::to_string(from);
          std::size_t walked = 0, walked_untold = 0;
          const spec::RefResult told = spec::resume_reference_check(
              property, plan, ladder, from, trace, end_of(trace),
              mutant->aligned, &walked);
          const spec::RefResult untold = spec::resume_reference_check(
              property, plan, ladder, from, trace, end_of(trace),
              trace.size(), &walked_untold);
          for (const spec::RefResult* r : {&told, &untold}) {
            EXPECT_EQ(r->verdict, full.verdict) << what;
            EXPECT_EQ(r->error_index, full.error_index) << what;
            EXPECT_EQ(r->reason, full.reason) << what;
          }
          EXPECT_LE(walked, walked_untold) << what;
          if (walked < walked_untold) ++tally.rejoined;
        }
      }
    }
  }
}

class MutationOracleResume
    : public ::testing::TestWithParam<std::tuple<const char*, MutationKind>> {
};

TEST_P(MutationOracleResume, FloorRungResumeEqualsFullWalk) {
  const auto [source, kind] = GetParam();
  OracleTally tally;
  check_oracle_resume(source, kind, 20, {1, 2, 3, 5, 8, 32}, 10, tally);
  if (kind == MutationKind::StallDeadline &&
      std::string(source).find("=>") == std::string::npos) {
    EXPECT_EQ(tally.applied, 0u) << "an antecedent has no deadline to stall";
  } else {
    EXPECT_GT(tally.resumed, 0u) << "no mutant had a floor rung";
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsByShape, MutationOracleResume,
    ::testing::Combine(::testing::ValuesIn(kOracleShapes),
                       ::testing::ValuesIn(kKinds)));

// The shortcut fires for every kind: across the shapes, some mutant's
// oracle walk rejoins the valid trace's and stops early.  Not per shape —
// every mutant of "(n << i, true)" is rejected at its edit, and a
// non-repeated antecedent decides at its first round, before any rejoin.
TEST(MutationOracleResumeDetails, ReconvergenceFiresForEveryKind) {
  for (const MutationKind kind : kKinds) {
    OracleTally tally;
    for (const char* source : kOracleShapes) {
      check_oracle_resume(source, kind, 10, {1, 8}, 10, tally);
    }
    EXPECT_GT(tally.rejoined, 0u)
        << to_string(kind) << ": no mutant's oracle walk rejoined";
  }
}

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
  EXPECT_EQ(sites_out.aligned, fresh->aligned) << what;
  EXPECT_EQ(names_out.aligned, fresh->aligned) << what;
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
