// Randomized agreement between the ViaPSL clause monitors and the Drct
// monitors / declarative reference.
//
// On finite prefixes the two monitor families are not expected to agree
// exactly: the PSL encoding detects some violations only at the reset point
// (its until-obligations stay open), while the Drct recognizers reject at
// the earliest impossible event.  The sound relations, checked here:
//   1. ViaPSL Rejected  =>  reference Rejected      (no false alarms)
//   2. reference Accepted => ViaPSL Accepted        (complete rounds agree)
//   3. reference Pending  => ViaPSL not Rejected
//   4. reference Rejected => ViaPSL Rejected or Pending; and after
//      appending two trigger events (forcing the reset point), ViaPSL
//      must report Rejected too.
// And per prefix against the Drct monitors, noise and timed properties
// included: ViaPSL never leads — a clause-network rejection is always
// confirmed by Drct on the same prefix and at finish.
#include <gtest/gtest.h>

#include "psl/clause_monitor.hpp"
#include "support/rng.hpp"
#include "testing.hpp"

namespace loom::psl {
namespace {

using support::Rng;

spec::Antecedent random_antecedent(Rng& rng, spec::Alphabet& ab) {
  spec::Antecedent a;
  std::size_t next_name = 0;
  const std::size_t fragments = 1 + rng.below(3);
  for (std::size_t f = 0; f < fragments; ++f) {
    spec::Fragment frag;
    frag.join = rng.chance(1, 2) ? spec::Join::Conj : spec::Join::Disj;
    const std::size_t ranges = 1 + rng.below(2);
    for (std::size_t r = 0; r < ranges; ++r) {
      spec::Range range;
      range.name = ab.name("n" + std::to_string(next_name++));
      range.lo = static_cast<std::uint32_t>(1 + rng.below(2));
      range.hi = range.lo + static_cast<std::uint32_t>(rng.below(3));
      frag.ranges.push_back(range);
    }
    a.pattern.fragments.push_back(std::move(frag));
  }
  a.trigger = ab.name("i");
  a.repeated = rng.chance(1, 2);
  return a;
}

spec::Trace random_trace(Rng& rng, const std::vector<spec::Name>& names,
                         std::size_t length) {
  spec::Trace t;
  std::uint64_t now_ns = 0;
  spec::Name prev = names[rng.below(names.size())];
  for (std::size_t k = 0; k < length; ++k) {
    const spec::Name name =
        rng.chance(2, 5) ? prev : names[rng.below(names.size())];
    now_ns += 1 + rng.below(20);
    t.push_back({name, sim::Time::ns(now_ns)});
    prev = name;
  }
  return t;
}

std::string render(const spec::Trace& t, const spec::Alphabet& ab) {
  std::string out;
  for (const auto& ev : t) out += ab.text(ev.name) + " ";
  return out;
}

class PslVsDrct : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PslVsDrct, SoundnessAndResetPointAgreement) {
  Rng rng(GetParam());
  for (int iteration = 0; iteration < 40; ++iteration) {
    spec::Alphabet ab;
    const spec::Antecedent a = random_antecedent(rng, ab);

    std::vector<spec::Name> names;
    a.alphabet().for_each(
        [&](std::size_t id) { names.push_back(static_cast<spec::Name>(id)); });

    for (int trace_no = 0; trace_no < 8; ++trace_no) {
      spec::Trace t = random_trace(rng, names, 1 + rng.below(25));
      const spec::RefResult ref = reference_check(a, t);

      ClauseMonitor psl_monitor{encode(a)};
      loom::testing::run_monitor(psl_monitor, t);
      const auto psl = loom::testing::as_ref(psl_monitor.verdict());

      const std::string context = "property: " + spec::to_string(a, ab) +
                                  "\ntrace: " + render(t, ab) +
                                  "\nreference: " + spec::to_string(ref.verdict) +
                                  " (" + ref.reason.text() + ")" +
                                  "\nviapsl: " + spec::to_string(psl);

      switch (ref.verdict) {
        case spec::RefVerdict::Accepted:
          EXPECT_EQ(psl, spec::RefVerdict::Accepted) << context;
          break;
        case spec::RefVerdict::Pending:
          EXPECT_NE(psl, spec::RefVerdict::Rejected) << context;
          break;
        case spec::RefVerdict::Rejected: {
          EXPECT_NE(psl, spec::RefVerdict::Accepted) << context;
          // Force the reset point: within two more triggers every open
          // until-obligation of the encoding resolves.
          spec::Trace extended = t;
          const sim::Time base =
              t.empty() ? sim::Time::zero() : t.back().time;
          extended.push_back({a.trigger, base + sim::Time::ns(5)});
          extended.push_back({a.trigger, base + sim::Time::ns(10)});
          ClauseMonitor resolved{encode(a)};
          loom::testing::run_monitor(resolved, extended);
          EXPECT_EQ(resolved.verdict(), mon::Verdict::Violated)
              << context << "\n(after forcing the reset point)";
          break;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PslVsDrct,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

TEST(PslVsDrctValid, CleanRoundsAgreeExactly) {
  // Hand-built library of valid traces ending at reset points: both monitor
  // families and the reference must all say Accepted.
  struct Item {
    const char* property;
    const char* trace;
  };
  const Item items[] = {
      {"(n << i, true)", "n i n i n i"},
      {"(n[2,3] << i, true)", "n n i n n n i"},
      {"(({a, b}, &) << i, true)", "a b i b a i"},
      {"(({a, b}, |) << i, true)", "a i b i a b i"},
      {"(a < b << i, true)", "a b i a b i"},
      {"(({a, b}, &) < c[1,2] << i, true)", "b a c c i a b c i"},
      {"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
       "n1 n2 n3 n3 n3 n5 i n2 n1 n4 n5 i"},
  };
  for (const auto& item : items) {
    spec::Alphabet ab;
    auto p = loom::testing::parse(item.property, ab);
    auto t = loom::testing::trace_of(item.trace, ab);

    mon::AntecedentMonitor drct(p.antecedent());
    loom::testing::run_monitor(drct, t);
    ClauseMonitor psl{encode(p)};
    loom::testing::run_monitor(psl, t);
    const auto ref = spec::reference_check(p.antecedent(), t);

    EXPECT_EQ(ref.verdict, spec::RefVerdict::Accepted)
        << item.property << " / " << item.trace << ": " << ref.reason.text();
    EXPECT_EQ(drct.verdict(), mon::Verdict::Monitoring)
        << item.property << " / " << item.trace;
    EXPECT_EQ(psl.verdict(), mon::Verdict::Monitoring)
        << item.property << " / " << item.trace
        << (psl.violation() ? "\n  " + psl.violation()->to_string(ab) : "");
  }
}

TEST(PslVsDrctPrefix, ViaPslNeverLeadsOnFuzzedTraces) {
  constexpr const char* kSources[] = {
      "(n << i, true)",
      "(({a, b, c}, &) << s, false)",
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
      "(p[2,3] => q[1,4] < r, 10us)",
  };
  std::size_t rejected = 0;
  for (const char* source : kSources) {
    spec::Alphabet ab;
    const spec::Property p = loom::testing::parse(source, ab);
    std::vector<spec::Name> names;
    p.alphabet().for_each(
        [&](std::size_t n) { names.push_back(static_cast<spec::Name>(n)); });
    names.push_back(ab.name("noise_x"));
    names.push_back(ab.name("noise_y"));
    const auto encoding =
        std::make_shared<const Encoding>(encode(p, 2000000, &ab));
    for (std::uint64_t trial = 0; trial < 80; ++trial) {
      Rng rng = Rng::stream(0xB17E + trial, 5);
      spec::Trace trace;
      sim::Time now;
      for (std::size_t len = rng.below(40); trace.size() < len;) {
        now += sim::Time::ns(1 + rng.below(2000));
        trace.push_back({names[rng.below(names.size())], now});
      }
      auto drct = mon::make_monitor(p);
      ClauseMonitor viapsl(encoding);
      const std::string what =
          std::string(source) + " trial " + std::to_string(trial);
      for (std::size_t i = 0; i < trace.size(); ++i) {
        drct->observe(trace[i].name, trace[i].time);
        viapsl.observe(trace[i].name, trace[i].time);
        if (viapsl.verdict() == mon::Verdict::Violated) {
          EXPECT_EQ(drct->verdict(), mon::Verdict::Violated)
              << what << " event " << i;
        }
      }
      drct->finish(now);
      viapsl.finish(now);
      if (viapsl.verdict() == mon::Verdict::Violated) {
        ++rejected;
        EXPECT_EQ(drct->verdict(), mon::Verdict::Violated) << what;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace loom::psl
