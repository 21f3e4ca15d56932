// Exhaustive small-model checking (our replacement for the paper's SPOT
// validation): for small alphabets, enumerate EVERY trace up to a length
// bound and require
//   - Drct monitor verdict == declarative reference verdict (exact), and
//   - ViaPSL soundness: no false alarms, agreement on accepted traces.
// Unlike the randomized suites, these sweeps cover every corner the bound
// allows — thousands of traces per property.
#include <gtest/gtest.h>

#include "psl/clause_monitor.hpp"
#include "testing.hpp"

namespace loom::mon {
namespace {

/// Calls fn(trace) for every trace over `names` with length <= max_len.
/// Events are spaced 10 ns apart.
template <typename Fn>
void for_all_traces(const std::vector<spec::Name>& names,
                    std::size_t max_len, Fn&& fn) {
  std::vector<std::size_t> digits;
  spec::Trace trace;
  for (std::size_t len = 0; len <= max_len; ++len) {
    digits.assign(len, 0);
    for (;;) {
      trace.clear();
      for (std::size_t k = 0; k < len; ++k) {
        trace.push_back({names[digits[k]], sim::Time::ns(10 * (k + 1))});
      }
      fn(trace);
      // Next combination (odometer).
      std::size_t pos = 0;
      while (pos < len && ++digits[pos] == names.size()) {
        digits[pos] = 0;
        ++pos;
      }
      if (pos == len) break;
      if (len == 0) break;
    }
    if (len == 0) continue;
  }
}

std::string render(const spec::Trace& t, const spec::Alphabet& ab) {
  std::string out;
  for (const auto& ev : t) out += ab.text(ev.name) + " ";
  return out;
}

class ExhaustiveAntecedent : public ::testing::TestWithParam<const char*> {};

TEST_P(ExhaustiveAntecedent, DrctEqualsReferenceOnAllTraces) {
  spec::Alphabet ab;
  auto p = loom::testing::parse(GetParam(), ab);
  std::vector<spec::Name> names;
  p.alphabet().for_each(
      [&](std::size_t id) { names.push_back(static_cast<spec::Name>(id)); });
  const std::size_t max_len = names.size() <= 3 ? 7 : 5;

  std::size_t checked = 0;
  for_all_traces(names, max_len, [&](const spec::Trace& t) {
    ++checked;
    const auto ref = spec::reference_check(p.antecedent(), t);
    AntecedentMonitor m(p.antecedent());
    loom::testing::run_monitor(m, t);
    ASSERT_EQ(loom::testing::as_ref(m.verdict()), ref.verdict)
        << GetParam() << " on [" << render(t, ab)
        << "] ref=" << ref.reason.text();
    if (ref.rejected() && m.violation().has_value()) {
      ASSERT_EQ(m.violation()->event_ordinal, ref.error_index)
          << GetParam() << " on [" << render(t, ab) << "]";
    }
  });
  EXPECT_GT(checked, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ExhaustiveAntecedent,
    ::testing::Values("(a << i, true)",                //
                      "(a << i, false)",               //
                      "(a[2,3] << i, true)",           //
                      "(({a, b}, &) << i, true)",      //
                      "(({a, b}, |) << i, true)",      //
                      "(({a, b}, |) << i, false)",     //
                      "(a < b << i, true)",            //
                      "(a[1,2] < b << i, true)",       //
                      "(({a, b}, &) < c << i, true)",  //
                      "(a < ({b, c}, |) << i, false)"));

class ExhaustivePslSoundness : public ::testing::TestWithParam<const char*> {
};

TEST_P(ExhaustivePslSoundness, NoFalseAlarmsAcceptedAgreement) {
  spec::Alphabet ab;
  auto p = loom::testing::parse(GetParam(), ab);
  std::vector<spec::Name> names;
  p.alphabet().for_each(
      [&](std::size_t id) { names.push_back(static_cast<spec::Name>(id)); });
  const psl::Encoding enc = psl::encode(p);

  for_all_traces(names, 6, [&](const spec::Trace& t) {
    const auto ref = spec::reference_check(p.antecedent(), t);
    psl::ClauseMonitor m(enc);
    loom::testing::run_monitor(m, t);
    const auto psl_verdict = loom::testing::as_ref(m.verdict());
    if (psl_verdict == spec::RefVerdict::Rejected) {
      ASSERT_EQ(ref.verdict, spec::RefVerdict::Rejected)
          << GetParam() << " false alarm on [" << render(t, ab) << "]: "
          << (m.violation() ? m.violation()->text() : "");
    }
    if (ref.verdict == spec::RefVerdict::Accepted) {
      ASSERT_EQ(psl_verdict, spec::RefVerdict::Accepted)
          << GetParam() << " on [" << render(t, ab) << "]";
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ExhaustivePslSoundness,
    ::testing::Values("(a << i, true)",             //
                      "(a << i, false)",            //
                      "(a[2,3] << i, true)",        //
                      "(({a, b}, &) << i, true)",   //
                      "(({a, b}, |) << i, true)",   //
                      "(a < b << i, true)"));

class ExhaustiveTimed : public ::testing::TestWithParam<const char*> {};

TEST_P(ExhaustiveTimed, DrctEqualsReferenceOnAllTraces) {
  spec::Alphabet ab;
  auto p = loom::testing::parse(GetParam(), ab);
  std::vector<spec::Name> names;
  p.alphabet().for_each(
      [&](std::size_t id) { names.push_back(static_cast<spec::Name>(id)); });

  std::size_t checked = 0;
  for_all_traces(names, 6, [&](const spec::Trace& t) {
    // Two end-of-observation points: right at the last event, and long
    // after (forcing deadline checks at finish()).
    const sim::Time last = t.empty() ? sim::Time::zero() : t.back().time;
    for (const sim::Time end : {last, last + sim::Time::us(1)}) {
      ++checked;
      const auto ref = spec::reference_check(p.timed(), t, end);
      TimedImplicationMonitor m(p.timed());
      loom::testing::run_monitor(m, t, end);
      ASSERT_EQ(loom::testing::as_ref(m.verdict()), ref.verdict)
          << GetParam() << " on [" << render(t, ab)
          << "] end=" << end.to_string() << " ref=" << ref.reason.text()
          << (m.violation() ? "\nmon=" + m.violation()->text() : "");
    }
  });
  EXPECT_GT(checked, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ExhaustiveTimed,
    ::testing::Values(
        // Bound 35 ns with 10 ns spacing: deadlines bite mid-trace.
        "(a => b, 35ns)",            //
        "(a => b, 1us)",             //
        "(a => b[1,2], 35ns)",       //
        "(a[1,2] => b, 45ns)",       //
        "(a => b < c, 55ns)",        //
        "(a < b => c, 55ns)"));

}  // namespace
}  // namespace loom::mon
