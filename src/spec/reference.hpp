// Declarative reference semantics (test oracle).
//
// An independent, offline implementation of Definitions 1-5 used to
// cross-check the online monitors: it walks a complete trace with the
// block-greedy interpretation (names of a property are pairwise disjoint,
// so matching is deterministic; see DESIGN.md §3).  It is deliberately
// written in a different style from the recognizer automata: block
// accounting over the projected trace instead of per-range state machines.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "spec/ast.hpp"
#include "spec/reason.hpp"

namespace loom::spec {

struct TimedEvent {
  Name name = kInvalidName;
  sim::Time time;

  bool operator==(const TimedEvent&) const = default;
};

using Trace = std::vector<TimedEvent>;

/// A contiguous run of borrowed events, each read with its time later by
/// `shift` (saturating sim::Time addition, like the trace it stands for).
struct TracePiece {
  const TimedEvent* data = nullptr;
  std::size_t size = 0;
  sim::Time shift;
};

/// A trace presented as up to five borrowed pieces instead of one owned
/// buffer: event j of the view is the event at offset j − base of the
/// piece that holds index j, where base is the summed size of the pieces
/// before it.  A mutant of a valid trace is such a view — the valid
/// trace's runs around at most two patch events (abv::MutantEdit) — so the
/// oracle and the monitors read it without the mutant ever being copied
/// out.  The view owns nothing: its pieces must outlive it.
struct TraceView {
  static constexpr std::size_t kMaxPieces = 5;
  std::array<TracePiece, kMaxPieces> pieces{};
  std::size_t count = 0;  // pieces in use; none of them is empty
  std::size_t size = 0;   // events over all pieces

  /// The whole of `trace` as one unshifted piece.
  static TraceView of(const Trace& trace) {
    TraceView v;
    v.append(trace.data(), trace.size());
    return v;
  }

  /// Appends a piece; an empty run adds nothing.
  void append(const TimedEvent* data, std::size_t n,
              sim::Time shift = sim::Time::zero()) {
    if (n == 0) return;
    pieces[count++] = {data, n, shift};
    size += n;
  }

  /// The time of the last event, as reference_check's callers take it for
  /// the end of observation (0 for an empty view).
  sim::Time end_time() const {
    if (count == 0) return sim::Time::zero();
    const TracePiece& last = pieces[count - 1];
    return last.data[last.size - 1].time + last.shift;
  }
};

/// Writes the view's events into `out` (cleared first, capacity reused):
/// the trace the view stands for, byte for byte.
void materialize(const TraceView& view, Trace& out);

enum class RefVerdict {
  Accepted,  // no violation, no recognition in progress
  Pending,   // no violation, recognition in progress at end of trace
  Rejected,  // violation
};

const char* to_string(RefVerdict v);

struct RefResult {
  RefVerdict verdict = RefVerdict::Accepted;
  /// Index (into the full trace) of the offending event when Rejected.
  std::size_t error_index = static_cast<std::size_t>(-1);
  /// Why the trace was rejected (empty otherwise); reason.text() renders
  /// the diagnostic.
  Reason reason;

  bool rejected() const { return verdict == RefVerdict::Rejected; }
};

/// Checks an antecedent requirement against a finite trace.
RefResult reference_check(const Antecedent& a, const Trace& trace);

/// Checks a timed implication constraint; `end_time` is the simulation time
/// at which observation stopped (deadline checks run against it).
RefResult reference_check(const TimedImplication& t, const Trace& trace,
                          sim::Time end_time);

RefResult reference_check(const Property& p, const Trace& trace,
                          sim::Time end_time);

struct OrderingPlan;  // spec/attributes.hpp

/// Plan-reusing forms: identical semantics, but the caller supplies the
/// property's flattened OrderingPlan (plan_antecedent / plan_timed — e.g.
/// mon::CompiledProperty::plan()) instead of this function re-planning on
/// every call.  The plan is a pure function of the property, so the result
/// is byte-identical either way; the campaign engine's steady-state loop
/// checks thousands of mutants per property and uses these to pay the
/// planning cost once.
RefResult reference_check(const Antecedent& a, const OrderingPlan& plan,
                          const Trace& trace);
RefResult reference_check(const TimedImplication& t, const OrderingPlan& plan,
                          const Trace& trace, sim::Time end_time);
RefResult reference_check(const Property& p, const OrderingPlan& plan,
                          const Trace& trace, sim::Time end_time);
/// The same walk over a pieced trace: byte-identical to the Trace form
/// over materialize(view), which is the one-piece case of this one.
RefResult reference_check(const Property& p, const OrderingPlan& plan,
                          const TraceView& view, sim::Time end_time);

/// One rung of an oracle checkpoint ladder: the reference walk's complete
/// state after a prefix of the trace — the round walker's registers, the
/// timed implication's obligation registers, and whether the walk had
/// already decided inside the prefix.  The walker's block counters live
/// beside the rung in RefLadder::counts.
struct RefRung {
  std::uint32_t fragment = 0;   // the fragment being recognized
  Name current = kInvalidName;  // the range whose block is open
  sim::Time frag_min_time;      // when the fragment reached its minimum
  sim::Time t_start;            // timed: when the obligation armed
  bool consumed = false;        // the walk has consumed a chain event
  bool frag_min_complete = false;
  bool armed = false;   // timed: P min-complete, obligation running
  bool q_done = false;  // timed: Q min-complete in this round
  bool decided = false;  // the walk returned inside the prefix
};

/// The oracle's checkpoint ladder over one trace, recorded by a single
/// walk: rungs[k] is the walk state after the first (k+1)·stride events
/// (rung k's cut), and `full` is the verdict of the whole trace.  Flat by
/// design — one record array plus one counter array, however many rungs.
struct RefLadder {
  std::size_t stride = 0;  // 0: nothing recorded
  std::size_t ranges = 0;  // counters per rung: the plan's range count
  std::size_t size = 0;    // events in the recorded trace
  sim::Time end_time;      // the end time the recording walk finished at
  std::vector<RefRung> rungs;
  /// counts[k·ranges + j]: rung k's block counter of the plan's j-th range
  /// (fragment-major, range-minor).
  std::vector<std::uint32_t> counts;
  RefResult full;
};

/// Walks `trace` once from the initial state, recording a rung after every
/// `stride` events (stride > 0; trace.size() / stride rungs) and the whole
/// trace's verdict — which is exactly reference_check(p, plan, trace,
/// end_time).
RefLadder record_reference_ladder(const Property& p, const OrderingPlan& plan,
                                  const Trace& trace, sim::Time end_time,
                                  std::size_t stride);

/// Resumes the walk after the first `floor` rungs of `ladder` (floor 0:
/// the initial state; floor <= ladder.rungs.size()) and finishes it over
/// `trace`, a mutant of the recorded trace.  Byte-identical — verdict,
/// error index and reason — to reference_check(p, plan, trace, end_time)
/// when both contracts below hold; the walk is deterministic, so the state
/// after a shared prefix is the rung, and a rung whose walk already
/// decided returns the recorded verdict.
///
/// Resume: `trace` shares its first floor·stride events with the recorded
/// trace (abv::MutationResult::position bounds that prefix).
///
/// Reconvergence: with δ = trace.size() − ladder.size and τ = end_time −
/// ladder.end_time, every event trace[j], j >= `aligned`, is the recorded
/// trace's event j − δ with its time later by τ (abv::MutationResult::
/// aligned; `aligned` = trace.size() claims nothing about the events and
/// is always safe).  At each undecided rung k whose cut maps to a mutant
/// index cut + δ >= max(aligned, floor·stride), the live walk state is
/// compared with rung k: block counters, fragment, open block, and the
/// consumed / min-complete / armed / consequent-done flags; for a timed
/// property also the fragment's minimum time while min-complete and the
/// obligation's start while armed, each of which must be later by exactly
/// τ.  On a match, the rest of the walk is the recorded one re-timed by τ,
/// and every verdict rule compares time differences, so the result is
/// ladder.full with its error index moved by δ.  A deadline sum t_start +
/// bound that saturates sim::Time needs no guard: against any
/// representable time it compares exactly as the true sum would.
///
/// `walked`, when given, receives the number of events the walk stepped
/// past the resume point: up to the reconvergence cut, the deciding event
/// or the end of the trace.
///
/// The mutant may arrive as a TraceView (abv::MutantEdit::view): the walk
/// steps its pieces in place, and the result — `walked` included — is the
/// Trace form's over materialize(view).  The Trace form is the one-piece
/// view of the trace.
RefResult resume_reference_check(const Property& p, const OrderingPlan& plan,
                                 const RefLadder& ladder, std::size_t floor,
                                 const TraceView& trace, sim::Time end_time,
                                 std::size_t aligned,
                                 std::size_t* walked = nullptr);
RefResult resume_reference_check(const Property& p, const OrderingPlan& plan,
                                 const RefLadder& ladder, std::size_t floor,
                                 const Trace& trace, sim::Time end_time,
                                 std::size_t aligned,
                                 std::size_t* walked = nullptr);

}  // namespace loom::spec
