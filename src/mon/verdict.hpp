//! Monitor verdicts, violation reports and the Monitor interface every
//! runtime construction (Drct and ViaPSL) implements.
//!
//! Ownership: a Monitor owns all of its mutable state; compiled
//! constructions (mon::CompiledProperty) additionally share immutable
//! artifacts behind shared_ptr, which instances keep alive.
//! Thread-safety: one Monitor belongs to one thread at a time; immutable
//! artifacts may be shared freely across threads.
//! Determinism contracts every implementation must keep:
//!   - observe_shifted(begin, end, shift) ≡ an observe(name, time + shift)
//!     loop, bit for bit (verdict, stats, violation, event ordinal) — the
//!     replay engine's foundation (mon_batch_test);
//!   - reset() ≡ fresh construction, bit for bit, including the Figure-6
//!     stats accounting — the instance-reuse foundation
//!     (mon_reset_reuse_test);
//!   - fork_from(live) ≡ the state of `live`, bit for bit, stats
//!     included — the forked-replay foundation: the campaign engine copies
//!     the paused valid walk into its replay instance (mon_fork_test);
//!   - restore(s) after snapshot(s) ≡ the state at snapshot time, bit for
//!     bit, stats included — the serialized form of the same state
//!     (mon_snapshot_test).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <typeinfo>

#include "sim/time.hpp"
#include "spec/alphabet.hpp"
#include "spec/reason.hpp"
#include "spec/reference.hpp"

namespace loom::mon {

class Snapshot;        // mon/snapshot.hpp
class SnapshotReader;  // mon/snapshot.hpp

enum class Verdict {
  Monitoring,  // active, no recognition in progress, no violation
  Pending,     // active, mid-recognition (weakly holds on a finite trace)
  Holds,       // retired satisfied (non-repeated antecedent validated)
  Violated,
};

const char* to_string(Verdict v);

struct Violation {
  /// Ordinal of the observe() call that failed (counting every observed
  /// event, including filtered ones).
  std::size_t event_ordinal = 0;
  sim::Time time;
  spec::Name name = spec::kInvalidName;
  /// What failed, as a code plus the operands its text prints: recording
  /// one allocates nothing, and text() renders it on demand.
  spec::Reason reason;
  /// The full text of a reason whose sentence needs more than its operands:
  /// a ViaPSL conjunct prints its clause formula, which the clause monitor
  /// renders through its encoding.  Empty for every other reason.
  std::string detail{};

  /// The reason's text, byte for byte the diagnostic the monitor reports.
  std::string text() const {
    return detail.empty() ? reason.text() : detail;
  }
  std::string to_string(const spec::Alphabet& ab) const;
};

/// Common interface of all property monitors (Drct and ViaPSL), used
/// by the ABV checker, the campaign engine and the benches.
class Monitor {
 public:
  virtual ~Monitor() = default;

  /// Feeds one observed interface event.
  virtual void observe(spec::Name name, sim::Time time) = 0;
  /// Steps a recorded event range back-to-back with every time later by
  /// `shift` (saturating at sim::Time::max()).  Semantically identical to
  /// an observe(name, time + shift) loop — same verdict, same stats, same
  /// violation, every event stepped even past a violation — each monitor
  /// merely implements it without the per-event virtual dispatch, and a
  /// retired monitor counts the rest of the range in one step.  Replay
  /// leans on that equivalence for its bit-identity guarantees: the
  /// campaign engine steps a mutant as pieces of a spec::TraceView, each
  /// one call here, without materializing it.
  virtual void observe_shifted(const spec::TimedEvent* begin,
                               const spec::TimedEvent* end,
                               sim::Time shift) = 0;
  /// The range at its recorded times: observe_shifted with shift 0.
  void observe_batch(const spec::TimedEvent* begin,
                     const spec::TimedEvent* end) {
    observe_shifted(begin, end, sim::Time::zero());
  }
  /// Whole-trace convenience form of the range overload above.
  void observe_batch(const spec::Trace& slice) {
    observe_batch(slice.data(), slice.data() + slice.size());
  }
  /// Signals end of observation at `end_time` (deadline checks).
  virtual void finish(sim::Time end_time) { (void)end_time; }
  /// Time-triggered check between events (in-simulation watchdogs).
  virtual void poll(sim::Time now) { (void)now; }
  /// Deadline of a currently armed timed obligation, if any.
  virtual std::optional<sim::Time> deadline() const { return std::nullopt; }

  virtual Verdict verdict() const = 0;
  virtual const std::optional<Violation>& violation() const = 0;

  virtual struct MonitorStats& stats() = 0;
  /// Bits of Boolean / bounded-integer monitor state (paper's "space").
  virtual std::size_t space_bits() const = 0;

  /// Restores the initial state (keeps the compiled plan).
  virtual void reset() = 0;

  /// Overwrites this instance's complete mutable state — stats,
  /// recognizer automata, verdict, violation, timing registers — with
  /// that of `live`, an instance of the same kind stamped from the same
  /// plan (the same shared artifact, compared by address), field by
  /// field: continuing observation is then indistinguishable from
  /// continuing `live` (mon_fork_test).  The plan, the stats
  /// back-pointers and per-event scratch stay this instance's own, and a
  /// warmed instance copies without touching the heap.  Throws
  /// std::logic_error (Release included) when `live` is another kind or
  /// was stamped from another plan.
  virtual void fork_from(const Monitor& live) = 0;

  /// Serializes the complete mutable state — the state fork_from copies:
  /// recognizers, stats, verdict, violation, timing registers — into
  /// `out` (cleared first; capacity reused).  The compiled plan is not
  /// part of the state: a snapshot may be restored into any instance of
  /// the same kind stamped from the same plan.
  virtual void snapshot(Snapshot& out) const = 0;
  /// Inverse of snapshot(): afterwards the instance is bit-identical to
  /// the one snapshot() saw — continuing observation is indistinguishable
  /// from an uninterrupted run (mon_snapshot_test).  Throws
  /// std::logic_error when `in` was written by a different monitor kind.
  virtual void restore(const Snapshot& in) = 0;
};

/// fork_from's source check: throws the std::logic_error naming `who`
/// and what was wrong with the source.
[[noreturn]] void reject_fork(const char* who, const char* source);

/// fork_from's kind check: `live` as an M, or reject_fork.
template <class M>
const M& fork_source(const Monitor& live, const char* who) {
  if (typeid(live) != typeid(M)) [[unlikely]] {
    reject_fork(who, "a monitor of another kind");
  }
  return static_cast<const M&>(live);
}

/// Shared snapshot encoding of a violation report (all monitor kinds carry
/// one): presence flag, ordinal, time, name and the reason's code words.
/// The detail text is not stored — restore_violation clears it, and a
/// monitor that writes details re-renders them after restoring.
void snapshot_violation(Snapshot& out, const std::optional<Violation>& v);
void restore_violation(SnapshotReader& in, std::optional<Violation>& v);

}  // namespace loom::mon
