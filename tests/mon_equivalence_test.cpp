// Randomized equivalence testing: the online Drct monitors must agree with
// the declarative reference semantics on every trace (valid or not).
//
// Properties and traces are generated from seeded RNGs, so failures are
// reproducible; each failing case prints the property, the trace and both
// verdicts.
#include <gtest/gtest.h>

#include "support/rng.hpp"
#include "testing.hpp"

namespace loom::mon {
namespace {

using support::Rng;

spec::LooseOrdering random_ordering(Rng& rng, spec::Alphabet& ab,
                                    std::size_t num_fragments,
                                    std::size_t& next_name) {
  spec::LooseOrdering l;
  for (std::size_t f = 0; f < num_fragments; ++f) {
    spec::Fragment frag;
    frag.join = rng.chance(1, 2) ? spec::Join::Conj : spec::Join::Disj;
    const std::size_t num_ranges = 1 + rng.below(3);
    for (std::size_t r = 0; r < num_ranges; ++r) {
      spec::Range range;
      range.name = ab.name("n" + std::to_string(next_name++));
      range.lo = static_cast<std::uint32_t>(1 + rng.below(3));
      range.hi = range.lo + static_cast<std::uint32_t>(rng.below(3));
      frag.ranges.push_back(range);
    }
    l.fragments.push_back(std::move(frag));
  }
  return l;
}

/// Random trace over the property alphabet plus two irrelevant names.
/// Biased towards plausible shapes: names are drawn with locality (repeat
/// the previous name often) so that blocks form and recognition progresses.
spec::Trace random_trace(Rng& rng, const std::vector<spec::Name>& names,
                         std::size_t length) {
  spec::Trace t;
  std::uint64_t now_ns = 0;
  spec::Name prev = names[rng.below(names.size())];
  for (std::size_t k = 0; k < length; ++k) {
    spec::Name name;
    if (rng.chance(2, 5)) {
      name = prev;  // extend the current block
    } else {
      name = names[rng.below(names.size())];
    }
    now_ns += 1 + rng.below(40);
    t.push_back({name, sim::Time::ns(now_ns)});
    prev = name;
  }
  return t;
}

std::string render_trace(const spec::Trace& t, const spec::Alphabet& ab) {
  std::string out;
  for (const auto& ev : t) {
    out += ab.text(ev.name) + "@" +
           std::to_string(ev.time.picoseconds() / 1000) + " ";
  }
  return out;
}

class AntecedentEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AntecedentEquivalence, MonitorAgreesWithReference) {
  Rng rng(GetParam());
  for (int iteration = 0; iteration < 60; ++iteration) {
    spec::Alphabet ab;
    std::size_t next_name = 0;
    spec::Antecedent a;
    a.pattern = random_ordering(rng, ab, 1 + rng.below(3), next_name);
    a.trigger = ab.name("i");
    a.repeated = rng.chance(1, 2);

    std::vector<spec::Name> names;
    a.alphabet().for_each(
        [&](std::size_t id) { names.push_back(static_cast<spec::Name>(id)); });
    names.push_back(ab.name("x"));  // irrelevant noise
    names.push_back(ab.name("y"));

    for (int trace_no = 0; trace_no < 10; ++trace_no) {
      const spec::Trace t = random_trace(rng, names, 1 + rng.below(30));
      const spec::RefResult expected = reference_check(a, t);

      AntecedentMonitor m(a);
      loom::testing::run_monitor(m, t);
      EXPECT_EQ(loom::testing::as_ref(m.verdict()), expected.verdict)
          << "property: " << spec::to_string(a, ab)
          << "\ntrace: " << render_trace(t, ab)
          << "\nreference: " << spec::to_string(expected.verdict) << " ("
          << expected.reason.text() << ")\nmonitor: " << to_string(m.verdict())
          << (m.violation() ? "\n  " + m.violation()->to_string(ab) : "");
      if (expected.rejected() && m.violation().has_value() &&
          expected.error_index < t.size()) {
        EXPECT_EQ(m.violation()->event_ordinal, expected.error_index)
            << "property: " << spec::to_string(a, ab)
            << "\ntrace: " << render_trace(t, ab);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AntecedentEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class TimedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimedEquivalence, MonitorAgreesWithReference) {
  Rng rng(GetParam());
  for (int iteration = 0; iteration < 40; ++iteration) {
    spec::Alphabet ab;
    std::size_t next_name = 0;
    spec::TimedImplication ti;
    ti.antecedent = random_ordering(rng, ab, 1 + rng.below(2), next_name);
    ti.consequent = random_ordering(rng, ab, 1 + rng.below(2), next_name);
    ti.bound = sim::Time::ns(30 + rng.below(400));

    std::vector<spec::Name> names;
    ti.alphabet().for_each(
        [&](std::size_t id) { names.push_back(static_cast<spec::Name>(id)); });
    names.push_back(ab.name("x"));

    for (int trace_no = 0; trace_no < 10; ++trace_no) {
      const spec::Trace t = random_trace(rng, names, 1 + rng.below(30));
      const sim::Time end = (t.empty() ? sim::Time::zero() : t.back().time) +
                            sim::Time::ns(rng.below(300));
      const spec::RefResult expected = reference_check(ti, t, end);

      TimedImplicationMonitor m(ti);
      loom::testing::run_monitor(m, t, end);
      EXPECT_EQ(loom::testing::as_ref(m.verdict()), expected.verdict)
          << "property: " << spec::to_string(ti, ab)
          << "\ntrace: " << render_trace(t, ab)
          << "\nend: " << end.to_string()
          << "\nreference: " << spec::to_string(expected.verdict) << " ("
          << expected.reason.text() << ")\nmonitor: " << to_string(m.verdict())
          << (m.violation() ? "\n  " + m.violation()->to_string(ab) : "");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimedEquivalence,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace loom::mon
