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
//
// A mutant is an edit (MutantEdit): pieces of the source trace around at
// most two patch events.  The MutantView suite pins the edit's bytes to
// the copying implementation it replaced — golden digests recorded with
// that implementation, over generated traces and hand-built edges — and
// holds its two readers, the oracle and the monitors, to the materialized
// bytes.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "mon/compiled.hpp"
#include "mon/snapshot.hpp"
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

// The ascending indices of `trace`'s alphabet events, computed here
// independently of the library.
std::vector<std::size_t> alphabet_sites(const spec::Trace& trace,
                                        const spec::Property& property) {
  const spec::NameSet alphabet = property.alphabet();
  std::vector<std::size_t> sites;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    if (alphabet.test(trace[k].name)) sites.push_back(k);
  }
  return sites;
}

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
        // The same draw as an edit, read in pieces by the view forms.
        support::Rng edit_rng = rng;
        const auto mutant = mutate(valid, kind, property, rng);
        MutantEdit edit;
        const std::vector<std::size_t> sites = alphabet_sites(valid, property);
        const bool edited =
            mutate_edit(valid, kind, property, sites, edit_rng, edit);
        ASSERT_EQ(edited, mutant.has_value());
        if (!mutant) continue;
        ++tally.applied;
        const spec::Trace& trace = mutant->trace;
        const spec::RefResult full =
            spec::reference_check(property, plan, trace, end_of(trace));
        ASSERT_EQ(edit.view.end_time(), end_of(trace));
        {
          const spec::RefResult pieced = spec::reference_check(
              property, plan, edit.view, edit.view.end_time());
          EXPECT_EQ(pieced.verdict, full.verdict);
          EXPECT_EQ(pieced.error_index, full.error_index);
          EXPECT_EQ(pieced.reason, full.reason);
        }
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
          std::size_t walked = 0, walked_untold = 0, walked_view = 0;
          const spec::RefResult told = spec::resume_reference_check(
              property, plan, ladder, from, trace, end_of(trace),
              mutant->aligned, &walked);
          const spec::RefResult untold = spec::resume_reference_check(
              property, plan, ladder, from, trace, end_of(trace),
              trace.size(), &walked_untold);
          const spec::RefResult viewed = spec::resume_reference_check(
              property, plan, ladder, from, edit.view, edit.view.end_time(),
              edit.aligned, &walked_view);
          for (const spec::RefResult* r : {&told, &untold, &viewed}) {
            EXPECT_EQ(r->verdict, full.verdict) << what;
            EXPECT_EQ(r->error_index, full.error_index) << what;
            EXPECT_EQ(r->reason, full.reason) << what;
          }
          EXPECT_EQ(walked_view, walked) << what << " [view]";
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


// --- MutantView: the edit's pieces against the bytes ----------------------
//
// Golden digests recorded with the copying implementation the edit
// replaced (mutate() at the time), over every call's outcome: whether it
// applied, the next Rng draw, and kind, position, aligned and every event
// of the mutant.  Every entry point must still land on them — mutate(),
// both mutate_into() overloads, and mutate_edit() materialized.

spec::Property parse_shape(const char* source, spec::Alphabet& ab) {
  return loom::testing::parse(source, ab);
}

// FNV-1a over 64-bit words.
std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// One mutation call's observable outcome: whether it applied, the next
// Rng draw after it, and — when it applied — kind, position, aligned and
// every event of the mutant.
std::uint64_t fold_call(std::uint64_t h, bool applied,
                        const MutationResult& m, support::Rng rng) {
  h = fnv(h, applied ? 1 : 0);
  h = fnv(h, rng.next());
  if (!applied) return h;
  h = fnv(h, static_cast<std::uint64_t>(m.kind));
  h = fnv(h, m.position);
  h = fnv(h, m.aligned);
  h = fnv(h, m.trace.size());
  for (const spec::TimedEvent& ev : m.trace) {
    h = fnv(h, ev.name);
    h = fnv(h, ev.time.picoseconds());
  }
  return h;
}

constexpr const char* kDigestShapes[] = {
    "(n << i, true)", "(n[2,3] << i, false)", "(({a, b, c}, &) << s, false)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(p[2,3] => q[1,4] < r, 10us)", "(a => b[1,3], 15ns)"};

// The digest over (property × seed × kind × draw) of `mutator`'s calls on
// generated valid traces.
template <typename Mutator>
std::uint64_t shapes_digest(Mutator mutator) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* source : kDigestShapes) {
    spec::Alphabet ab;
    const spec::Property property = parse_shape(source, ab);
    StimuliOptions sopt;
    sopt.rounds = 5;
    sopt.noise_permille = 150;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      support::Rng gen_rng = support::Rng::stream(seed, 0);
      const spec::Trace valid = generate_valid(property, ab, gen_rng, sopt);
      for (const MutationKind kind : kKinds) {
        support::Rng rng = support::Rng::stream(seed, 17);
        for (int draw = 0; draw < 10; ++draw) {
          MutationResult m;
          const bool applied = mutator(valid, kind, property, rng, m);
          h = fold_call(h, applied, m, rng);
        }
      }
    }
  }
  return h;
}

// Hand-built edge traces: 0, 1 and 2 events, noise between the two events
// a swap exchanges, and times so close to sim::Time's ceiling that a
// stalled tail saturates.
struct EdgeCase {
  const char* property;
  std::vector<std::pair<const char*, std::uint64_t>> events;  // name, ps
};

std::vector<EdgeCase> edge_cases() {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  return {
      {"(n << i, true)", {}},
      {"(n << i, true)", {{"n", 10}}},
      {"(n << i, true)", {{"n", 10}, {"i", 20}}},
      {"(n << i, true)", {{"n", 10}, {"z", 15}, {"y", 17}, {"i", 20}}},
      {"(n << i, true)", {{"i", 10}, {"z", 15}, {"n", 20}, {"z", 25}}},
      {"(p[2,3] => q[1,4] < r, 10us)", {}},
      {"(p[2,3] => q[1,4] < r, 10us)", {{"p", 1000}}},
      {"(p[2,3] => q[1,4] < r, 10us)", {{"p", 1000}, {"q", 2000}}},
      {"(p[2,3] => q[1,4] < r, 10us)",
       {{"p", 1000}, {"z", 1500}, {"q", 2000}, {"r", 3000}}},
      {"(p[2,3] => q[1,4] < r, 10us)",
       {{"p", kTop - 30}, {"p", kTop - 20}, {"q", kTop - 10}, {"r", kTop}}},
      {"(a => b[1,3], 15ns)", {{"a", kTop - 1}, {"b", kTop}}},
  };
}

template <typename Mutator>
std::uint64_t edges_digest(Mutator mutator) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::uint64_t index = 0;
  for (const EdgeCase& c : edge_cases()) {
    spec::Alphabet ab;
    const spec::Property property = parse_shape(c.property, ab);
    spec::Trace trace;
    for (const auto& [name, ps] : c.events) {
      trace.push_back({ab.name(name), sim::Time::ps(ps)});
    }
    ++index;
    for (const MutationKind kind : kKinds) {
      support::Rng rng = support::Rng::stream(index, 29);
      for (int draw = 0; draw < 16; ++draw) {
        MutationResult m;
        const bool applied = mutator(trace, kind, property, rng, m);
        h = fold_call(h, applied, m, rng);
      }
    }
  }
  return h;
}

constexpr std::uint64_t kShapesGolden = 0x767fe0361c6b3970ULL;
constexpr std::uint64_t kEdgesGolden = 0x885e7bfa2ab1ca31ULL;

// Each entry point as a digest mutator.
bool by_mutate(const spec::Trace& t, MutationKind k, const spec::Property& p,
               support::Rng& rng, MutationResult& m) {
  auto r = mutate(t, k, p, rng);
  if (r) m = std::move(*r);
  return r.has_value();
}

bool by_names(const spec::Trace& t, MutationKind k, const spec::Property& p,
              support::Rng& rng, MutationResult& m) {
  return mutate_into(t, k, p, p.alphabet(), rng, m);
}

bool by_sites(const spec::Trace& t, MutationKind k, const spec::Property& p,
              support::Rng& rng, MutationResult& m) {
  return mutate_into(t, k, p, alphabet_sites(t, p), rng, m);
}

bool by_edit(const spec::Trace& t, MutationKind k, const spec::Property& p,
             support::Rng& rng, MutationResult& m) {
  MutantEdit edit;
  if (!mutate_edit(t, k, p, alphabet_sites(t, p), rng, edit)) return false;
  materialize(edit, m);
  return true;
}

TEST(MutantView, EveryEntryPointLandsOnTheGoldenDigestOfGeneratedTraces) {
  EXPECT_EQ(shapes_digest(by_mutate), kShapesGolden);
  EXPECT_EQ(shapes_digest(by_names), kShapesGolden);
  EXPECT_EQ(shapes_digest(by_sites), kShapesGolden);
  EXPECT_EQ(shapes_digest(by_edit), kShapesGolden);
}

TEST(MutantView, EveryEntryPointLandsOnTheGoldenDigestOfEdgeTraces) {
  EXPECT_EQ(edges_digest(by_mutate), kEdgesGolden);
  EXPECT_EQ(edges_digest(by_names), kEdgesGolden);
  EXPECT_EQ(edges_digest(by_sites), kEdgesGolden);
  EXPECT_EQ(edges_digest(by_edit), kEdgesGolden);
}

// The view's shape, per edit: at most five non-empty pieces summing to the
// mutant's size, each pointing into the source trace or the edit's own
// patch, unshifted but for StallDeadline's tail, and ending at the
// materialized mutant's end time.
void expect_well_formed(const spec::Trace& source, const MutantEdit& edit,
                        const spec::Trace& bytes, const std::string& what) {
  const spec::TraceView& v = edit.view;
  ASSERT_LE(v.count, spec::TraceView::kMaxPieces) << what;
  EXPECT_EQ(v.size, bytes.size()) << what;
  EXPECT_EQ(v.end_time(), end_of(bytes)) << what;
  std::size_t total = 0;
  for (std::size_t i = 0; i < v.count; ++i) {
    const spec::TracePiece& piece = v.pieces[i];
    EXPECT_GT(piece.size, 0u) << what << " piece " << i;
    total += piece.size;
    const bool in_source =
        piece.data >= source.data() &&
        piece.data + piece.size <= source.data() + source.size();
    const bool in_patch = piece.data >= edit.patch &&
                          piece.data + piece.size <= edit.patch + 2;
    EXPECT_TRUE(in_source || in_patch) << what << " piece " << i;
    if (!piece.shift.is_zero()) {
      EXPECT_EQ(edit.kind, MutationKind::StallDeadline) << what;
      EXPECT_EQ(i + 1, v.count) << what << ": only the tail is shifted";
    }
  }
  EXPECT_EQ(total, v.size) << what;
}

TEST(MutantView, PiecesAreWellFormedAndCoverTheEdges) {
  // Coverage the edge traces exist for: an edit at the first index and at
  // the last, a swap across noise, and a stalled tail that saturates.
  bool at_first = false, at_last = false, noisy_swap = false;
  bool saturated = false;
  const auto check = [&](const spec::Trace& trace,
                         const spec::Property& property, support::Rng& rng,
                         MutationKind kind, const std::string& what) {
    MutantEdit edit;
    support::Rng copy = rng;
    if (!mutate_edit(trace, kind, property, alphabet_sites(trace, property),
                     rng, edit)) {
      return;
    }
    MutationResult bytes;
    ASSERT_TRUE(by_mutate(trace, kind, property, copy, bytes)) << what;
    expect_well_formed(trace, edit, bytes.trace, what);
    MutationResult materialized;
    materialize(edit, materialized);
    EXPECT_EQ(materialized.trace, bytes.trace) << what;
    const std::size_t n = trace.size();
    if ((kind == MutationKind::Drop || kind == MutationKind::SwapAdjacent) &&
        edit.position == 0) {
      at_first = true;
    }
    if ((kind == MutationKind::Drop && edit.position + 1 == n) ||
        (kind == MutationKind::Duplicate && edit.position == n) ||
        (kind == MutationKind::EarlyTrigger && edit.position == n)) {
      at_last = true;
    }
    if (kind == MutationKind::SwapAdjacent &&
        edit.aligned > edit.position + 2) {
      noisy_swap = true;
    }
    if (kind == MutationKind::StallDeadline &&
        end_of(bytes.trace) == sim::Time::max()) {
      saturated = true;
    }
  };
  std::uint64_t index = 0;
  for (const EdgeCase& c : edge_cases()) {
    spec::Alphabet ab;
    const spec::Property property = parse_shape(c.property, ab);
    spec::Trace trace;
    for (const auto& [name, ps] : c.events) {
      trace.push_back({ab.name(name), sim::Time::ps(ps)});
    }
    ++index;
    for (const MutationKind kind : kKinds) {
      support::Rng rng = support::Rng::stream(index, 29);
      for (int draw = 0; draw < 16; ++draw) {
        check(trace, property, rng, kind,
              std::string(c.property) + " edge " + std::to_string(index) +
                  " " + to_string(kind) + " draw " + std::to_string(draw));
      }
    }
  }
  for (const char* source : kDigestShapes) {
    spec::Alphabet ab;
    const spec::Property property = parse_shape(source, ab);
    StimuliOptions sopt;
    sopt.rounds = 5;
    sopt.noise_permille = 150;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      support::Rng gen_rng = support::Rng::stream(seed, 0);
      const spec::Trace valid = generate_valid(property, ab, gen_rng, sopt);
      for (const MutationKind kind : kKinds) {
        support::Rng rng = support::Rng::stream(seed, 17);
        for (int draw = 0; draw < 10; ++draw) {
          check(valid, property, rng, kind,
                std::string(source) + " seed " + std::to_string(seed) + " " +
                    to_string(kind) + " draw " + std::to_string(draw));
        }
      }
    }
  }
  EXPECT_TRUE(at_first);
  EXPECT_TRUE(at_last);
  EXPECT_TRUE(noisy_swap);
  EXPECT_TRUE(saturated);
}

// Steps the view's events [begin, end) through `monitor` piece by piece,
// the way the campaign engine replays a mutant.
void replay_pieces(mon::Monitor& monitor, const spec::TraceView& view,
                   std::size_t begin) {
  std::size_t base = 0;
  for (std::size_t i = 0; i < view.count; ++i) {
    const spec::TracePiece& piece = view.pieces[i];
    const std::size_t skip = begin > base ? begin - base : 0;
    base += piece.size;
    if (skip < piece.size) {
      monitor.observe_shifted(piece.data + skip, piece.data + piece.size,
                              piece.shift);
    }
  }
}

void expect_same_monitor(mon::Monitor& got, mon::Monitor& want,
                         const std::string& what) {
  EXPECT_EQ(got.verdict(), want.verdict()) << what;
  ASSERT_EQ(got.violation().has_value(), want.violation().has_value())
      << what;
  if (got.violation()) {
    EXPECT_EQ(got.violation()->event_ordinal, want.violation()->event_ordinal)
        << what;
    EXPECT_EQ(got.violation()->time, want.violation()->time) << what;
    EXPECT_EQ(got.violation()->name, want.violation()->name) << what;
    EXPECT_EQ(got.violation()->reason, want.violation()->reason) << what;
    EXPECT_EQ(got.violation()->text(), want.violation()->text()) << what;
  }
  EXPECT_EQ(got.stats().ops, want.stats().ops) << what;
  EXPECT_EQ(got.stats().events, want.stats().events) << what;
  EXPECT_EQ(got.stats().max_ops_per_event, want.stats().max_ops_per_event)
      << what;
}

TEST(MutantView, ReplayingThePiecesFromEveryCutEqualsTheMaterializedBatch) {
  // The engine's replay: a monitor restored to the valid prefix at a cut
  // <= position (a dirty instance, like a pooled one), then the edit's
  // pieces from the cut on through observe_shifted, then finish at the
  // view's end time — against a fresh monitor batching the materialized
  // mutant.  Vm and Drct alike; StallDeadline's shifted tail (τ != 0) on
  // the timed shapes.
  std::size_t shifted = 0, resumed = 0;
  for (const mon::Backend backend : {mon::Backend::Vm, mon::Backend::Drct}) {
    for (const char* source : kDigestShapes) {
      spec::Alphabet ab;
      const spec::Property property = parse_shape(source, ab);
      mon::CompileOptions copt;
      copt.backend = backend;
      const mon::CompiledProperty compiled =
          mon::CompiledProperty::compile(property, ab, copt);
      StimuliOptions sopt;
      sopt.rounds = 5;
      sopt.noise_permille = 150;
      const std::unique_ptr<mon::Monitor> prefix = compiled.instantiate();
      const std::unique_ptr<mon::Monitor> pooled = compiled.instantiate();
      const std::unique_ptr<mon::Monitor> whole = compiled.instantiate();
      mon::Snapshot at_cut;
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        support::Rng gen_rng = support::Rng::stream(seed, 0);
        const spec::Trace valid = generate_valid(property, ab, gen_rng, sopt);
        const std::vector<std::size_t> sites = alphabet_sites(valid, property);
        for (const MutationKind kind : kKinds) {
          support::Rng rng = support::Rng::stream(seed, 41);
          for (int draw = 0; draw < 4; ++draw) {
            MutantEdit edit;
            if (!mutate_edit(valid, kind, property, sites, rng, edit)) {
              continue;
            }
            MutationResult bytes;
            materialize(edit, bytes);
            whole->reset();
            whole->observe_batch(bytes.trace);
            whole->finish(end_of(bytes.trace));
            if (edit.view.pieces[edit.view.count - 1].shift !=
                sim::Time::zero()) {
              ++shifted;
            }
            std::vector<std::size_t> cuts;
            for (std::size_t c = 0; c < edit.position; c += 3) {
              cuts.push_back(c);
            }
            cuts.push_back(edit.position);
            for (const std::size_t cut : cuts) {
              const std::string what =
                  std::string(to_string(backend)) + " " + source + " seed " +
                  std::to_string(seed) + " " + to_string(kind) + " draw " +
                  std::to_string(draw) + " cut " + std::to_string(cut);
              prefix->reset();
              prefix->observe_batch(valid.data(), valid.data() + cut);
              prefix->snapshot(at_cut);
              pooled->restore(at_cut);
              replay_pieces(*pooled, edit.view, cut);
              pooled->finish(edit.view.end_time());
              expect_same_monitor(*pooled, *whole, what);
              if (cut > 0) ++resumed;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(shifted, 0u);
  EXPECT_GT(resumed, 1000u);
}

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

}  // namespace
}  // namespace loom::abv
