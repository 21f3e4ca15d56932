#include <gtest/gtest.h>

#include <sstream>

#include "abv/stimuli.hpp"
#include "spec/attributes.hpp"
#include "spec/parser.hpp"
#include "spec/reference.hpp"
#include "support/rng.hpp"

namespace loom::spec {
namespace {

Trace trace_of(const std::string& names, Alphabet& ab) {
  Trace t;
  std::string w;
  std::istringstream in(names);
  std::uint64_t i = 1;
  while (in >> w) t.push_back({ab.name(w), sim::Time::ns(10 * i++)});
  return t;
}

struct AntecedentCase {
  const char* property;
  const char* trace;
  RefVerdict expected;
};

class AntecedentRef : public ::testing::TestWithParam<AntecedentCase> {};

TEST_P(AntecedentRef, Verdict) {
  Alphabet ab;
  support::DiagnosticSink sink;
  auto p = parse_property(GetParam().property, ab, sink);
  ASSERT_TRUE(p.has_value()) << sink.to_string();
  Trace t = trace_of(GetParam().trace, ab);
  const RefResult r = reference_check(p->antecedent(), t);
  EXPECT_EQ(r.verdict, GetParam().expected)
      << "property: " << GetParam().property
      << "\ntrace: " << GetParam().trace << "\nreason: " << r.reason;
}

INSTANTIATE_TEST_SUITE_P(
    SingleRangeRepeated, AntecedentRef,
    ::testing::Values(
        AntecedentCase{"(n << i, true)", "", RefVerdict::Accepted},
        AntecedentCase{"(n << i, true)", "n i", RefVerdict::Accepted},
        AntecedentCase{"(n << i, true)", "n i n i", RefVerdict::Accepted},
        AntecedentCase{"(n << i, true)", "n", RefVerdict::Pending},
        AntecedentCase{"(n << i, true)", "i", RefVerdict::Rejected},
        AntecedentCase{"(n << i, true)", "n i i", RefVerdict::Rejected},
        AntecedentCase{"(n << i, true)", "n n i", RefVerdict::Rejected},
        AntecedentCase{"(n << i, true)", "n i n n", RefVerdict::Rejected}));

INSTANTIATE_TEST_SUITE_P(
    SingleRangeNonRepeated, AntecedentRef,
    ::testing::Values(
        AntecedentCase{"(n << i, false)", "n i", RefVerdict::Accepted},
        // After the first validated i, everything is unconstrained.
        AntecedentCase{"(n << i, false)", "n i i i n n",
                       RefVerdict::Accepted},
        AntecedentCase{"(n << i, false)", "i", RefVerdict::Rejected},
        AntecedentCase{"(n << i, false)", "n n", RefVerdict::Rejected}));

INSTANTIATE_TEST_SUITE_P(
    RangeBounds, AntecedentRef,
    ::testing::Values(
        AntecedentCase{"(n[2,4] << i, true)", "n n i", RefVerdict::Accepted},
        AntecedentCase{"(n[2,4] << i, true)", "n n n n i",
                       RefVerdict::Accepted},
        AntecedentCase{"(n[2,4] << i, true)", "n i", RefVerdict::Rejected},
        AntecedentCase{"(n[2,4] << i, true)", "n n n n n i",
                       RefVerdict::Rejected},
        AntecedentCase{"(n[2,4] << i, true)", "n n n", RefVerdict::Pending}));

INSTANTIATE_TEST_SUITE_P(
    ConjunctiveFragment, AntecedentRef,
    ::testing::Values(
        // Paper Example 2 shape: all three inputs, any order, then start.
        AntecedentCase{"(({a, b, c}, &) << s, false)", "a b c s",
                       RefVerdict::Accepted},
        AntecedentCase{"(({a, b, c}, &) << s, false)", "c a b s",
                       RefVerdict::Accepted},
        AntecedentCase{"(({a, b, c}, &) << s, false)", "a b s",
                       RefVerdict::Rejected},
        AntecedentCase{"(({a, b, c}, &) << s, false)", "a b c",
                       RefVerdict::Pending},
        AntecedentCase{"(({a, b, c}, &) << s, false)", "a b a c s",
                       RefVerdict::Rejected},  // block a reopened
        AntecedentCase{"(({a, b, c}, &) << s, false)", "a a b c s",
                       RefVerdict::Rejected}));  // a[1,1] exceeded

INSTANTIATE_TEST_SUITE_P(
    DisjunctiveFragment, AntecedentRef,
    ::testing::Values(
        AntecedentCase{"(({a, b}, |) << i, true)", "a i", RefVerdict::Accepted},
        AntecedentCase{"(({a, b}, |) << i, true)", "b i", RefVerdict::Accepted},
        AntecedentCase{"(({a, b}, |) << i, true)", "a b i",
                       RefVerdict::Accepted},
        AntecedentCase{"(({a, b}, |) << i, true)", "i", RefVerdict::Rejected},
        AntecedentCase{"(({a, b}, |) << i, true)", "a b a i",
                       RefVerdict::Rejected}));

INSTANTIATE_TEST_SUITE_P(
    MultiFragment, AntecedentRef,
    ::testing::Values(
        AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                       "n1 n2 n3 n3 n5 i", RefVerdict::Accepted},
        AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                       "n2 n1 n3 n3 n3 n4 n5 i", RefVerdict::Accepted},
        AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                       "n1 n2 n4 n3 n3 n5 i", RefVerdict::Accepted},
        // n3 below its minimum.
        AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                       "n1 n2 n3 n5 i", RefVerdict::Rejected},
        // n1 reappears in fragment 2 (name of an earlier fragment).
        AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                       "n1 n2 n3 n3 n1 n5 i", RefVerdict::Rejected},
        // n5 too early (belongs to a later fragment).
        AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                       "n1 n5 i", RefVerdict::Rejected},
        // Fragment 2 skipped entirely.
        AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                       "n1 n2 n5 i", RefVerdict::Rejected},
        // Trigger before anything.
        AntecedentCase{"(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
                       "i", RefVerdict::Rejected}));

TEST(AntecedentRefDetails, ErrorIndexPointsAtOffendingEvent) {
  Alphabet ab;
  support::DiagnosticSink sink;
  auto p = parse_property("(n << i, true)", ab, sink);
  ASSERT_TRUE(p.has_value());
  Trace t = trace_of("n i i", ab);
  const RefResult r = reference_check(p->antecedent(), t);
  ASSERT_EQ(r.verdict, RefVerdict::Rejected);
  EXPECT_EQ(r.error_index, 2u);
  EXPECT_FALSE(r.reason.empty());
}

TEST(AntecedentRefDetails, IrrelevantNamesAreProjectedAway) {
  Alphabet ab;
  support::DiagnosticSink sink;
  auto p = parse_property("(n << i, true)", ab, sink);
  ASSERT_TRUE(p.has_value());
  Trace t = trace_of("x n y i z", ab);
  EXPECT_EQ(reference_check(p->antecedent(), t).verdict,
            RefVerdict::Accepted);
}

struct TimedCase {
  const char* property;
  const char* trace;  // "name@ns" entries
  std::uint64_t end_ns;
  RefVerdict expected;
};

class TimedRef : public ::testing::TestWithParam<TimedCase> {};

Trace timed_trace(const std::string& entries, Alphabet& ab) {
  Trace t;
  std::istringstream in(entries);
  std::string w;
  while (in >> w) {
    const auto at = w.find('@');
    t.push_back({ab.name(w.substr(0, at)),
                 sim::Time::ns(std::stoull(w.substr(at + 1)))});
  }
  return t;
}

TEST_P(TimedRef, Verdict) {
  Alphabet ab;
  support::DiagnosticSink sink;
  auto p = parse_property(GetParam().property, ab, sink);
  ASSERT_TRUE(p.has_value()) << sink.to_string();
  Trace t = timed_trace(GetParam().trace, ab);
  const RefResult r =
      reference_check(p->timed(), t, sim::Time::ns(GetParam().end_ns));
  EXPECT_EQ(r.verdict, GetParam().expected)
      << "property: " << GetParam().property
      << "\ntrace: " << GetParam().trace << "\nreason: " << r.reason;
}

INSTANTIATE_TEST_SUITE_P(
    Basic, TimedRef,
    ::testing::Values(
        // (a => b, 100ns): b must follow a within 100 ns.
        TimedCase{"(a => b, 100ns)", "a@10 b@50", 200, RefVerdict::Accepted},
        TimedCase{"(a => b, 100ns)", "a@10 b@110", 200,
                  RefVerdict::Accepted},  // exactly on the deadline
        TimedCase{"(a => b, 100ns)", "a@10 b@111", 200, RefVerdict::Rejected},
        TimedCase{"(a => b, 100ns)", "a@10", 300, RefVerdict::Rejected},
        TimedCase{"(a => b, 100ns)", "a@10", 50, RefVerdict::Pending},
        TimedCase{"(a => b, 100ns)", "", 500, RefVerdict::Accepted},
        // Repetition: each a needs its own timely b.
        TimedCase{"(a => b, 100ns)", "a@10 b@20 a@30 b@40", 500,
                  RefVerdict::Accepted},
        TimedCase{"(a => b, 100ns)", "a@10 b@20 a@30 b@200", 500,
                  RefVerdict::Rejected},
        // b without a: out-of-place (chain starts at a).
        TimedCase{"(a => b, 100ns)", "b@10", 100, RefVerdict::Rejected}));

INSTANTIATE_TEST_SUITE_P(
    PaperExample3Shape, TimedRef,
    ::testing::Values(
        // (start => read_img[2,5] < set_irq, 1us)
        TimedCase{"(start => read_img[2,5] < set_irq, 1us)",
                  "start@10 read_img@20 read_img@30 set_irq@40", 2000,
                  RefVerdict::Accepted},
        TimedCase{"(start => read_img[2,5] < set_irq, 1us)",
                  "start@10 read_img@20 set_irq@30", 2000,
                  RefVerdict::Rejected},  // too few reads
        TimedCase{"(start => read_img[2,5] < set_irq, 1us)",
                  "start@10 read_img@20 read_img@30 read_img@40 read_img@50 "
                  "read_img@60 read_img@70",
                  2000, RefVerdict::Rejected},  // six reads > v=5
        TimedCase{"(start => read_img[2,5] < set_irq, 1us)",
                  "start@10 read_img@20 read_img@900 set_irq@1200", 2000,
                  RefVerdict::Rejected},  // irq after deadline (10+1000)
        TimedCase{"(start => read_img[2,5] < set_irq, 1us)",
                  "start@10 read_img@20 read_img@30 set_irq@40 start@50 "
                  "read_img@60 read_img@70 set_irq@80",
                  2000, RefVerdict::Accepted},  // two clean rounds
        // set_irq without the reads.
        TimedCase{"(start => read_img[2,5] < set_irq, 1us)",
                  "start@10 set_irq@20", 2000, RefVerdict::Rejected}));

INSTANTIATE_TEST_SUITE_P(
    MinCompleteSemantics, TimedRef,
    ::testing::Values(
        // Final fragment with lo<hi: obligation met at the lower bound.
        TimedCase{"(a => b[2,4], 100ns)", "a@10 b@20 b@30", 500,
                  RefVerdict::Accepted},
        TimedCase{"(a => b[2,4], 100ns)", "a@10 b@20 b@30 b@40 b@50", 500,
                  RefVerdict::Accepted},  // draining up to hi
        TimedCase{"(a => b[2,4], 100ns)", "a@10 b@20", 500,
                  RefVerdict::Rejected},  // min never reached, deadline passes
        TimedCase{"(a => b[2,4], 100ns)", "a@10 b@20 b@30 b@40 b@50 b@60", 500,
                  RefVerdict::Rejected},  // five b's > hi
        // New round: restart name after the block.
        TimedCase{"(a => b[2,4], 100ns)", "a@10 b@20 b@30 a@40 b@50 b@60", 500,
                  RefVerdict::Accepted},
        // t_start is min-completion of P: with P = p[2,3], the clock starts
        // at the second p.
        TimedCase{"(p[2,3] => q, 100ns)", "p@10 p@50 q@140", 500,
                  RefVerdict::Accepted},
        TimedCase{"(p[2,3] => q, 100ns)", "p@10 p@50 p@60 q@160", 500,
                  RefVerdict::Rejected}));  // deadline from second p (150)

TEST(TimedRefDetails, DeadlineAtEndOfObservation) {
  Alphabet ab;
  support::DiagnosticSink sink;
  auto p = parse_property("(a => b, 100ns)", ab, sink);
  ASSERT_TRUE(p.has_value());
  Trace t = timed_trace("a@10", ab);
  // end_time within the deadline: still pending
  EXPECT_EQ(reference_check(p->timed(), t, sim::Time::ns(100)).verdict,
            RefVerdict::Pending);
  // end_time past the deadline: rejected
  EXPECT_EQ(reference_check(p->timed(), t, sim::Time::ns(111)).verdict,
            RefVerdict::Rejected);
}


// --- Resume ≡ full walk (the oracle checkpoint ladder) ---------------------
//
// record_reference_ladder walks a trace once, saving the oracle's state
// every `stride` events; resume_reference_check restarts from such a rung
// over any trace sharing the rung's prefix.  Fuzzed at every cut: for each
// rung, the recorded trace itself and random edits of its suffix must get
// exactly reference_check's verdict, error index and reason.

void expect_same(const RefResult& resumed, const RefResult& full,
                 const std::string& what) {
  EXPECT_EQ(resumed.verdict, full.verdict) << what;
  EXPECT_EQ(resumed.error_index, full.error_index) << what;
  EXPECT_EQ(resumed.reason, full.reason) << what;
}

// One random edit at or after `from`: drop, duplicate (1 ps later), insert
// a random name, or delay every later event (a stall) — the same shapes the
// campaign's mutators produce, including suffix time shifts.
Trace edit_suffix(const Trace& t, std::size_t from,
                  const std::vector<Name>& names, support::Rng& rng) {
  Trace out = t;
  const std::size_t at = from + rng.below(t.size() - from + 1);
  switch (rng.below(4)) {
    case 0:
      if (at < out.size()) out.erase(out.begin() + static_cast<long>(at));
      break;
    case 1:
      if (at > 0 && at <= out.size()) {
        TimedEvent copy = out[at - 1];
        copy.time = copy.time + sim::Time::ps(1);
        out.insert(out.begin() + static_cast<long>(at), copy);
      }
      break;
    case 2: {
      const sim::Time time = at < out.size() ? out[at].time
                             : out.empty()   ? sim::Time::ns(1)
                                             : out.back().time;
      out.insert(out.begin() + static_cast<long>(at),
                 {names[rng.below(names.size())], time});
      break;
    }
    default: {
      const sim::Time delay = sim::Time::ns(rng.between(1, 20000));
      for (std::size_t i = at; i < out.size(); ++i) {
        out[i].time = out[i].time + delay;
      }
      break;
    }
  }
  return out;
}

struct ResumeTally {
  std::size_t rungs = 0;
  std::size_t decided_rejected = 0;  // rungs after a prefix rejection
  std::size_t decided_accepted = 0;  // rungs after a non-repeated accept
  std::size_t armed = 0;             // rungs while a deadline is running
};

void check_every_cut(const Property& p, const OrderingPlan& plan,
                     const Trace& trace, std::size_t stride,
                     const std::vector<Name>& names, support::Rng& rng,
                     ResumeTally& tally) {
  for (const sim::Time slack : {sim::Time::zero(), sim::Time::us(50)}) {
    const sim::Time end =
        (trace.empty() ? sim::Time::zero() : trace.back().time) + slack;
    const RefLadder ladder =
        record_reference_ladder(p, plan, trace, end, stride);
    expect_same(ladder.full, reference_check(p, plan, trace, end), "full");
    ASSERT_EQ(ladder.rungs.size(), trace.size() / stride);
    ASSERT_EQ(ladder.counts.size(), ladder.rungs.size() * ladder.ranges);
    for (std::size_t k = 0; k < ladder.rungs.size(); ++k) {
      const RefRung& rung = ladder.rungs[k];
      ++tally.rungs;
      if (rung.decided) {
        ++(ladder.full.rejected() ? tally.decided_rejected
                                  : tally.decided_accepted);
      }
      if (rung.armed && !rung.q_done) ++tally.armed;
      const std::string what = "stride " + std::to_string(stride) +
                               " rung " + std::to_string(k) + " of " +
                               std::to_string(trace.size()) + " events";
      expect_same(resume_reference_check(p, plan, ladder, k, trace, end),
                  ladder.full, what + " (recorded trace)");
      const std::size_t cut = (k + 1) * stride;
      for (int e = 0; e < 3; ++e) {
        const Trace variant = edit_suffix(trace, cut, names, rng);
        const sim::Time vend =
            (variant.empty() ? sim::Time::zero() : variant.back().time) +
            slack;
        expect_same(resume_reference_check(p, plan, ladder, k, variant, vend),
                    reference_check(p, plan, variant, vend),
                    what + " (edited suffix)");
      }
    }
  }
}

class ReferenceResume : public ::testing::TestWithParam<const char*> {};

TEST_P(ReferenceResume, EqualsTheFullWalkAtEveryCut) {
  Alphabet ab;
  support::DiagnosticSink sink;
  auto parsed = parse_property(GetParam(), ab, sink);
  ASSERT_TRUE(parsed.has_value()) << sink.to_string();
  const Property& p = *parsed;
  const OrderingPlan plan = p.is_antecedent() ? plan_antecedent(p.antecedent())
                                              : plan_timed(p.timed());
  abv::StimuliOptions sopt;
  sopt.rounds = 4;
  sopt.noise_permille = 200;
  // Names for random insertions: the property's own plus two noise names.
  std::vector<Name> names;
  for (std::size_t n = plan.alphabet.first(); n < plan.alphabet.capacity();
       n = plan.alphabet.next(n)) {
    names.push_back(static_cast<Name>(n));
  }
  names.push_back(ab.name("noise_x"));
  names.push_back(ab.name("noise_y"));

  ResumeTally tally;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    support::Rng gen = support::Rng::stream(seed, 0);
    support::Rng rng = support::Rng::stream(seed, 1);
    const Trace valid = abv::generate_valid(p, ab, gen, sopt);
    // A valid trace, plus an edited one that usually rejects somewhere in
    // its prefix — so later rungs are recorded after a decided walk.
    const Trace edited = edit_suffix(valid, 0, names, rng);
    for (const std::size_t stride : {1, 3, 32}) {
      check_every_cut(p, plan, valid, stride, names, rng, tally);
      check_every_cut(p, plan, edited, stride, names, rng, tally);
    }
  }
  EXPECT_GT(tally.rungs, 0u);
  EXPECT_GT(tally.decided_rejected, 0u) << "no rung after a prefix rejection";
  if (p.is_timed()) {
    EXPECT_GT(tally.armed, 0u) << "no rung while a deadline was running";
  } else if (!p.antecedent().repeated) {
    EXPECT_GT(tally.decided_accepted, 0u)
        << "no rung after an accepted non-repeated round";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReferenceResume,
    ::testing::Values(
        "(n << i, true)", "(n[2,3] << i, false)",
        "(({a, b, c}, &) << s, false)", "(({a, b}, |) << i, true)",
        "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
        "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, false)",
        "(a => b[2,4], 100ns)", "(p[2,3] => q[1,4] < r, 10us)",
        "(start => read_img[2,5] < set_irq, 1us)"));

TEST(ReferenceResumeDetails, ShortTraceRecordsOnlyTheVerdict) {
  Alphabet ab;
  support::DiagnosticSink sink;
  auto p = parse_property("(n << i, true)", ab, sink);
  ASSERT_TRUE(p.has_value());
  const OrderingPlan plan = plan_antecedent(p->antecedent());
  const Trace t = trace_of("n i i", ab);
  const RefLadder ladder =
      record_reference_ladder(*p, plan, t, t.back().time, 32);
  EXPECT_TRUE(ladder.rungs.empty());
  EXPECT_TRUE(ladder.counts.empty());
  expect_same(ladder.full, reference_check(*p, plan, t, t.back().time),
              "short trace");
  EXPECT_EQ(ladder.full.error_index, 2u);
}

}  // namespace
}  // namespace loom::spec
