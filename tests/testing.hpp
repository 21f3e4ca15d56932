// Shared helpers for the LOOM test suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "abv/stimuli.hpp"
#include "mon/monitors.hpp"
#include "mon/snapshot.hpp"
#include "spec/parser.hpp"
#include "spec/reference.hpp"
#include "spec/wellformed.hpp"

namespace loom::spec {

/// GTest printer: containers of TimedEvent render element-wise as
/// "#id@<ps>ps" instead of byte dumps (the interned text needs an
/// Alphabet; see loom::testing::traces_equal for the named form).
inline void PrintTo(const TimedEvent& ev, std::ostream* os) {
  *os << "#" << ev.name << "@" << ev.time.picoseconds() << "ps";
}

/// GTest printer: a reason renders as its code number, operands and text.
inline void PrintTo(const Reason& r, std::ostream* os) {
  *os << "code " << static_cast<int>(r.code) << " {" << r.ints[0] << ", "
      << r.ints[1] << ", " << r.ints[2] << "} {"
      << r.times[0].picoseconds() << "ps, " << r.times[1].picoseconds()
      << "ps} \"" << r.text() << "\"";
}

}  // namespace loom::spec

namespace loom::testing {

/// Parses a property, asserting success; aborts the test on failure.
inline spec::Property parse(const std::string& source, spec::Alphabet& ab) {
  support::DiagnosticSink sink;
  auto p = spec::parse_property(source, ab, sink);
  if (!p) {
    throw std::runtime_error("parse failed for: " + source + "\n" +
                             sink.to_string());
  }
  return *p;
}

/// Builds a trace from a whitespace-separated list of names; events are
/// spaced `step_ns` apart starting at t = step_ns.
inline spec::Trace trace_of(const std::string& names, spec::Alphabet& ab,
                            std::uint64_t step_ns = 10) {
  spec::Trace t;
  std::istringstream in(names);
  std::string w;
  std::uint64_t i = 1;
  while (in >> w) {
    t.push_back({ab.name(w), sim::Time::ns(step_ns * i)});
    ++i;
  }
  return t;
}

/// Builds a trace with explicit "name@ns" stamps, e.g. "a@10 b@25".
inline spec::Trace timed_trace_of(const std::string& entries,
                                  spec::Alphabet& ab) {
  spec::Trace t;
  std::istringstream in(entries);
  std::string w;
  while (in >> w) {
    const auto at = w.find('@');
    const std::string name = w.substr(0, at);
    const std::uint64_t ns = std::stoull(w.substr(at + 1));
    t.push_back({ab.name(name), sim::Time::ns(ns)});
  }
  return t;
}

/// Runs a Drct monitor over a trace and finishes it at `end_time` (defaults
/// to the last event's time).
inline mon::Verdict run_monitor(mon::Monitor& m, const spec::Trace& trace,
                                std::optional<sim::Time> end_time = {}) {
  for (const auto& ev : trace) m.observe(ev.name, ev.time);
  sim::Time end = end_time.value_or(
      trace.empty() ? sim::Time::zero() : trace.back().time);
  m.finish(end);
  return m.verdict();
}

/// Renders one event as "name@<ps>ps", falling back to "#id" for ids the
/// alphabet does not know (e.g. traces parsed into a different alphabet).
inline std::string render_event(const spec::TimedEvent& ev,
                                const spec::Alphabet& ab) {
  std::ostringstream os;
  if (ev.name < ab.size()) {
    os << ab.text(ev.name);
  } else {
    os << "#" << ev.name;
  }
  os << "@" << ev.time.picoseconds() << "ps";
  return os.str();
}

/// Element-wise trace comparison: the failure message names the first
/// diverging event (or the first surplus event of the longer trace)
/// instead of an opaque boolean.
inline ::testing::AssertionResult traces_equal(const spec::Trace& actual,
                                               const spec::Trace& expected,
                                               const spec::Alphabet& ab) {
  const std::size_t n = std::min(actual.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(actual[i] == expected[i])) {
      return ::testing::AssertionFailure()
             << "traces diverge at event " << i << ": actual "
             << render_event(actual[i], ab) << " vs expected "
             << render_event(expected[i], ab);
    }
  }
  if (actual.size() != expected.size()) {
    const auto& longer = actual.size() > expected.size() ? actual : expected;
    return ::testing::AssertionFailure()
           << "trace sizes differ: actual " << actual.size()
           << " vs expected " << expected.size() << "; first surplus event ["
           << n << "] = " << render_event(longer[n], ab);
  }
  return ::testing::AssertionSuccess();
}

/// A campaign report without its "backend:" line.  Forcing Drct or Vm
/// changes only that line: every other field of report() is semantic and
/// must not depend on the monitor construction (the backend-independence
/// differential compares what this leaves).
inline std::string report_without_backend(const std::string& report) {
  std::string out;
  std::istringstream in(report);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("backend: ", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// Field-wise CampaignResult comparison for the determinism / differential
/// suites: lists every differing field by name.  The seed-pass (trace-
/// cache) split, the forked-replay counts and the retry count are engine
/// diagnostics, deliberately excluded — compare them separately where a
/// test pins them down.  The backend fields of compile_stats are semantic
/// (they name the monitor construction behind the numbers) and do compare.
inline ::testing::AssertionResult results_identical(
    const abv::CampaignResult& a, const abv::CampaignResult& b) {
  std::ostringstream diff;
  const auto field = [&diff](const char* name, auto x, auto y) {
    if (!(x == y)) diff << "  " << name << ": " << x << " vs " << y << "\n";
  };
  field("compile_stats.backend_requested",
        mon::to_string(a.compile_stats.backend_requested),
        mon::to_string(b.compile_stats.backend_requested));
  field("compile_stats.backend_chosen",
        mon::to_string(a.compile_stats.backend_chosen),
        mon::to_string(b.compile_stats.backend_chosen));
  field("traces", a.traces, b.traces);
  field("events", a.events, b.events);
  field("valid_accepted", a.valid_accepted, b.valid_accepted);
  field("oracle_disagreements", a.oracle_disagreements,
        b.oracle_disagreements);
  field("viapsl_false_alarms", a.viapsl_false_alarms, b.viapsl_false_alarms);
  for (std::size_t k = 0; k < 5; ++k) {
    const std::string kind =
        std::string("mutation[") +
        abv::to_string(static_cast<abv::MutationKind>(k)) + "].";
    field((kind + "applied").c_str(), a.mutation[k].applied,
          b.mutation[k].applied);
    field((kind + "invalid").c_str(), a.mutation[k].invalid,
          b.mutation[k].invalid);
    field((kind + "detected").c_str(), a.mutation[k].detected,
          b.mutation[k].detected);
    field((kind + "missed").c_str(), a.mutation[k].missed,
          b.mutation[k].missed);
  }
  // Coverage ratios and the operation accounting compare exactly, not
  // within a tolerance: the shard merges are exact.
  field("alphabet_coverage", a.alphabet_coverage, b.alphabet_coverage);
  field("recognizer_state_coverage", a.recognizer_state_coverage,
        b.recognizer_state_coverage);
  field("monitor_stats.ops", a.monitor_stats.ops, b.monitor_stats.ops);
  field("monitor_stats.events", a.monitor_stats.events,
        b.monitor_stats.events);
  field("monitor_stats.max_ops_per_event", a.monitor_stats.max_ops_per_event,
        b.monitor_stats.max_ops_per_event);
  // Degradation is semantic (worker_retries is not: a retried campaign
  // must compare identical to a clean one, so the retry count stays out).
  field("shard_failures.size()", a.shard_failures.size(),
        b.shard_failures.size());
  if (diff.str().empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "CampaignResult fields differ:\n"
         << diff.str();
}

/// Byte equality of two monitor snapshots (word sequence and string pool):
/// the complete mutable state — stats, verdict, violation and the event
/// ordinal included.
inline ::testing::AssertionResult snapshots_equal(const mon::Snapshot& a,
                                                  const mon::Snapshot& b) {
  if (a.words() != b.words()) {
    return ::testing::AssertionFailure() << "snapshot words differ";
  }
  if (a.string_count() != b.string_count()) {
    return ::testing::AssertionFailure() << "snapshot string counts differ";
  }
  for (std::size_t i = 0; i < a.string_count(); ++i) {
    if (a.string_at(i) != b.string_at(i)) {
      return ::testing::AssertionFailure()
             << "snapshot string " << i << " differs: \"" << a.string_at(i)
             << "\" vs \"" << b.string_at(i) << "\"";
    }
  }
  return ::testing::AssertionSuccess();
}

/// A trace whose monitor retires part-way: a valid prefix from the stimuli
/// generator (a non-repeated antecedent already reaches Holds there),
/// followed by `tail` random events over the property's names plus two
/// noise names, spaced up to 2 µs apart — random order violates almost at
/// once, and the gaps break timed deadlines.
inline spec::Trace retiring_trace(const spec::Property& p, spec::Alphabet& ab,
                                  std::uint64_t seed, std::size_t tail) {
  support::Rng rng = support::Rng::stream(seed, 0);
  abv::StimuliOptions sopt;
  sopt.rounds = 1 + rng.below(3);
  sopt.noise_permille = 150;
  spec::Trace t = abv::generate_valid(p, ab, rng, sopt);
  std::vector<spec::Name> names;
  p.alphabet().for_each(
      [&](std::size_t n) { names.push_back(static_cast<spec::Name>(n)); });
  names.push_back(ab.name("noise_x"));
  names.push_back(ab.name("noise_y"));
  sim::Time now = t.empty() ? sim::Time::zero() : t.back().time;
  for (std::size_t i = 0; i < tail; ++i) {
    now += sim::Time::ns(1 + rng.below(2000));
    t.push_back({names[rng.below(names.size())], now});
  }
  return t;
}

/// Maps a monitor verdict onto the reference verdict domain.
inline spec::RefVerdict as_ref(mon::Verdict v) {
  switch (v) {
    case mon::Verdict::Violated: return spec::RefVerdict::Rejected;
    case mon::Verdict::Pending: return spec::RefVerdict::Pending;
    case mon::Verdict::Monitoring:
    case mon::Verdict::Holds: return spec::RefVerdict::Accepted;
  }
  return spec::RefVerdict::Accepted;
}

}  // namespace loom::testing
