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
      << "\ntrace: " << GetParam().trace << "\nreason: " << r.reason.text();
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
      << "\ntrace: " << GetParam().trace << "\nreason: " << r.reason.text();
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
// every `stride` events; resume_reference_check restarts after any number
// of rungs (0: the initial state) over any trace sharing that prefix, and
// stops early where the walk rejoins the recorded one past the edit's
// aligned index.  Fuzzed at every cut: for each floor, the recorded trace
// itself and random edits of its suffix must get exactly reference_check's
// verdict, error index and reason — and the reconvergence shortcut must
// actually fire, which `walked` proves: a walk that rejoined stepped fewer
// events than the same resume told nothing about the edit.

void expect_same(const RefResult& resumed, const RefResult& full,
                 const std::string& what) {
  EXPECT_EQ(resumed.verdict, full.verdict) << what;
  EXPECT_EQ(resumed.error_index, full.error_index) << what;
  EXPECT_EQ(resumed.reason, full.reason) << what;
}

// A trace edited at or after some index, and the index from which it is
// the original again, re-indexed by the size change and re-timed by the
// end-time change (the reconvergence contract of resume_reference_check).
struct Edited {
  Trace trace;
  std::size_t aligned = 0;
};

// One random edit at or after `from`: drop, duplicate (1 ps later), insert
// a random name, or delay every later event (a stall) — the same shapes the
// campaign's mutators produce, including suffix time shifts.
Edited edit_suffix(const Trace& t, std::size_t from,
                   const std::vector<Name>& names, support::Rng& rng) {
  Edited out{t, 0};
  Trace& e = out.trace;
  const std::size_t at = from + rng.below(t.size() - from + 1);
  out.aligned = at;  // right for a drop, a stall, and every no-op
  switch (rng.below(4)) {
    case 0:
      if (at < e.size()) e.erase(e.begin() + static_cast<long>(at));
      break;
    case 1:
      if (at > 0 && at <= e.size()) {
        TimedEvent copy = e[at - 1];
        copy.time = copy.time + sim::Time::ps(1);
        e.insert(e.begin() + static_cast<long>(at), copy);
        out.aligned = at + 1;
      }
      break;
    case 2: {
      const sim::Time time = at < e.size() ? e[at].time
                             : e.empty()   ? sim::Time::ns(1)
                                           : e.back().time;
      e.insert(e.begin() + static_cast<long>(at),
               {names[rng.below(names.size())], time});
      out.aligned = at + 1;
      break;
    }
    default: {
      const sim::Time delay = sim::Time::ns(rng.between(1, 20000));
      for (std::size_t i = at; i < e.size(); ++i) {
        e[i].time = e[i].time + delay;
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
  std::size_t rejoined = 0;          // edits whose walk stopped early
};

// Resumes `trace` after `floor` rungs twice — told its aligned index, and
// told nothing (aligned = its size) — and checks both against the full
// walk; true when the told walk rejoined, stepping fewer events.
bool expect_resume(const Property& p, const OrderingPlan& plan,
                   const RefLadder& ladder, std::size_t floor,
                   const Trace& trace, std::size_t aligned, sim::Time end,
                   const std::string& what) {
  const RefResult full = reference_check(p, plan, trace, end);
  std::size_t walked = 0, walked_untold = 0;
  expect_same(resume_reference_check(p, plan, ladder, floor, trace, end,
                                     aligned, &walked),
              full, what);
  expect_same(resume_reference_check(p, plan, ladder, floor, trace, end,
                                     trace.size(), &walked_untold),
              full, what + " (untold)");
  EXPECT_LE(walked, walked_untold) << what;
  EXPECT_LE(floor * ladder.stride + walked_untold, trace.size()) << what;
  return walked < walked_untold;
}

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
    ASSERT_EQ(ladder.size, trace.size());
    ASSERT_EQ(ladder.end_time, end);
    for (std::size_t floor = 0; floor <= ladder.rungs.size(); ++floor) {
      if (floor > 0) {
        const RefRung& rung = ladder.rungs[floor - 1];
        ++tally.rungs;
        if (rung.decided) {
          ++(ladder.full.rejected() ? tally.decided_rejected
                                    : tally.decided_accepted);
        }
        if (rung.armed && !rung.q_done) ++tally.armed;
      }
      const std::string what = "stride " + std::to_string(stride) +
                               " floor " + std::to_string(floor) + " of " +
                               std::to_string(trace.size()) + " events";
      // The recorded trace is aligned with itself from event 0.
      expect_resume(p, plan, ladder, floor, trace, 0, end,
                    what + " (recorded trace)");
      const std::size_t cut = floor * stride;
      for (int e = 0; e < 3; ++e) {
        const Edited variant = edit_suffix(trace, cut, names, rng);
        const sim::Time vend = (variant.trace.empty()
                                    ? sim::Time::zero()
                                    : variant.trace.back().time) +
                               slack;
        if (expect_resume(p, plan, ladder, floor, variant.trace,
                          variant.aligned, vend, what + " (edited suffix)")) {
          ++tally.rejoined;
        }
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
    const Trace edited = edit_suffix(valid, 0, names, rng).trace;
    for (const std::size_t stride : {1, 3, 32}) {
      check_every_cut(p, plan, valid, stride, names, rng, tally);
      check_every_cut(p, plan, edited, stride, names, rng, tally);
    }
  }
  EXPECT_GT(tally.rungs, 0u);
  EXPECT_GT(tally.rejoined, 0u) << "no edited walk rejoined the recorded one";
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
        "(a => b[1,3], 15ns)",
        "(start => read_img[2,5] < set_irq, 1us)"));

// Hand-built edges of the reconvergence shortcut, each resumed from every
// floor and compared with the full walk.  An edit is a mutant plus its
// aligned index (the reconvergence contract), so edits need not come from
// a mutator.
struct EdgeCase {
  const char* property;
  const char* valid;   // timed_trace entries: name@ns
  const char* mutant;
  std::size_t aligned;
};

class ReferenceReconverge : public ::testing::TestWithParam<EdgeCase> {};

TEST_P(ReferenceReconverge, EdgeEqualsTheFullWalkFromEveryFloor) {
  const EdgeCase& c = GetParam();
  Alphabet ab;
  support::DiagnosticSink sink;
  auto parsed = parse_property(c.property, ab, sink);
  ASSERT_TRUE(parsed.has_value()) << sink.to_string();
  const Property& p = *parsed;
  const OrderingPlan plan = p.is_antecedent() ? plan_antecedent(p.antecedent())
                                              : plan_timed(p.timed());
  const Trace valid = timed_trace(c.valid, ab);
  const Trace mutant = timed_trace(c.mutant, ab);
  const auto end_of = [](const Trace& t) {
    return t.empty() ? sim::Time::zero() : t.back().time;
  };
  for (const sim::Time slack : {sim::Time::zero(), sim::Time::us(1)}) {
    for (const std::size_t stride : {1, 2, 3}) {
      const RefLadder ladder = record_reference_ladder(
          p, plan, valid, end_of(valid) + slack, stride);
      for (std::size_t floor = 0; floor <= ladder.rungs.size(); ++floor) {
        if (floor * stride > mutant.size()) break;
        bool shared = true;  // the resume contract: a shared prefix
        for (std::size_t i = 0; i < floor * stride; ++i) {
          shared = shared && i < valid.size() && valid[i] == mutant[i];
        }
        if (!shared) break;
        expect_resume(p, plan, ladder, floor, mutant, c.aligned,
                      end_of(mutant) + slack,
                      std::string(c.mutant) + " stride " +
                          std::to_string(stride) + " floor " +
                          std::to_string(floor));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Edges, ReferenceReconverge,
    ::testing::Values(
        // A stall of the last event (τ = 31 ns, empty suffix): the arming
        // event moves, so the final state matches modulo τ.
        EdgeCase{"(a => b[1,3], 15ns)", "a@10 b@20 a@40", "a@10 b@20 a@71", 2},
        // ... and with the obligation running, it cannot match.
        EdgeCase{"(a => b[1,3], 15ns)", "a@10 b@20 a@40 b@45",
                 "a@10 b@20 a@40 b@76", 3},
        // A drop of a trailing event (δ = −1, τ = 0, empty suffix), whose
        // deadline verdict moves its error index by δ.
        EdgeCase{"(a => b[1,3], 15ns)", "a@10 b@20 a@40 z@40",
                 "a@10 b@20 a@40", 3},
        // A drop of the only event: the mutant is empty.
        EdgeCase{"(a => b[1,3], 15ns)", "z@10", "", 0},
        EdgeCase{"(a => b[1,3], 15ns)", "a@10", "", 0},
        // Empty recorded trace: no rungs, only floor 0.
        EdgeCase{"(n << i, true)", "", "", 0},
        EdgeCase{"(n << i, true)", "", "n@10", 1},
        // Decided rungs: an accepted non-repeated round, then a rejection
        // in the recorded prefix; the edit lands before and after them.
        EdgeCase{"(n << i, false)", "n@10 i@20 n@30 i@40",
                 "n@10 z@15 i@20 n@30 i@40", 2},
        EdgeCase{"(n << i, false)", "n@10 i@20 n@30 i@40",
                 "n@10 i@20 n@30 n@31 i@40", 4},
        EdgeCase{"(a => b[1,3], 15ns)", "a@10 b@40 a@50 b@55",
                 "a@10 b@40 a@50 b@86", 3},
        EdgeCase{"(a => b[1,3], 15ns)", "a@10 b@40 a@50 b@55",
                 "a@10 z@11 b@40 a@50 b@55", 2},
        // A mid-trace stall between rounds: every later register moves by
        // τ, so the walk rejoins modulo τ at the next cut.
        EdgeCase{"(a => b[1,3], 15ns)", "a@10 b@20 a@40 b@50 a@70 b@80",
                 "a@10 b@20 a@71 b@81 a@101 b@111", 2}),
    [](const ::testing::TestParamInfo<EdgeCase>& info) {
      return "edge" + std::to_string(info.index);
    });

TEST(ReferenceReconvergeDetails, StallBetweenRoundsRejoinsAtTheNextCut) {
  // The shortcut fires modulo τ: after the stall, the mutant's walk state
  // is the recorded one 31 ns later, so it stops at the first cut past
  // the edit instead of stepping the rest of the trace.
  Alphabet ab;
  support::DiagnosticSink sink;
  auto p = parse_property("(a => b[1,3], 15ns)", ab, sink);
  ASSERT_TRUE(p.has_value());
  const OrderingPlan plan = plan_timed(p->timed());
  const Trace valid = timed_trace("a@10 b@20 a@40 b@50 a@70 b@80", ab);
  const Trace mutant = timed_trace("a@10 b@20 a@71 b@81 a@101 b@111", ab);
  const RefLadder ladder =
      record_reference_ladder(*p, plan, valid, valid.back().time, 1);
  std::size_t walked = 0;
  expect_same(resume_reference_check(*p, plan, ladder, 2, mutant,
                                     mutant.back().time, 2, &walked),
              reference_check(*p, plan, mutant, mutant.back().time),
              "stall");
  EXPECT_EQ(walked, 1u) << "the walk did not rejoin at the first cut";
}

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
