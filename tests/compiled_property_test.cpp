// Unit lockdowns of the translate-once compilation layer and what it
// shares: mon::CompiledProperty (the Auto cost-model choice, campaigns
// resolving Auto alike, artifact materialization, instantiate() equivalence
// with stand-alone construction, the infeasible-shape paths) and the
// reference oracle's plan-reusing overload.
#include <gtest/gtest.h>

#include <stdexcept>

#include "abv/campaign.hpp"
#include "mon/compiled.hpp"
#include "mon/monitors.hpp"
#include "psl/clause_monitor.hpp"
#include "spec/reference.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

constexpr mon::Backend kBackends[] = {mon::Backend::Auto, mon::Backend::Drct,
                                      mon::Backend::ViaPSL};

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

TEST(CompiledProperty, CampaignPlansResolveAutoLikeStandaloneCompile) {
  // One Auto rule everywhere: ViaPSL iff feasible and strictly cheaper
  // under the exposed analytic costs, otherwise Drct — for a standalone
  // compile() and for the plans a campaign compiles alike.
  spec::Alphabet ab;
  for (const char* source :
       {"(n << i, true)", "(({a, b}, &) << s, true)",
        "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
        "(p[2,3] => q[1,4] < r, 10us)", "(p => ({q1, q2}, &), 10us)"}) {
    const spec::Property p = loom::testing::parse(source, ab);
    const auto c = mon::CompiledProperty::compile(p, ab);
    const std::uint64_t viapsl_ops =
        c.viapsl_cost().ops_per_token + c.viapsl_cost().lexer_ops;
    const mon::Backend expected =
        c.viapsl_feasible() && viapsl_ops < c.drct_ops_per_event()
            ? mon::Backend::ViaPSL
            : mon::Backend::Drct;
    EXPECT_EQ(c.chosen(), expected) << source;
    const auto plans = compile_property_plans({&p}, ab, CampaignOptions{});
    EXPECT_EQ(plans[0].compiled.chosen(), c.chosen()) << source;
    EXPECT_NE(plans[0].compiled.instantiate(), nullptr) << source;
  }
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

}  // namespace
}  // namespace loom::abv
