//! Monitor verdicts, violation reports and the Monitor interface every
//! runtime construction (Drct and ViaPSL) implements.
//!
//! Ownership: a Monitor owns all of its mutable state; compiled
//! constructions (mon::CompiledProperty) additionally share immutable
//! artifacts behind shared_ptr, which instances keep alive.
//! Thread-safety: one Monitor belongs to one thread at a time; immutable
//! artifacts may be shared freely across threads.
//! Determinism contracts every implementation must keep:
//!   - observe_batch() ≡ an observe() loop, bit for bit (verdict, stats,
//!     violation) — the replay engine's foundation;
//!   - reset() ≡ fresh construction, bit for bit, including the Figure-6
//!     stats accounting — the instance-reuse foundation
//!     (mon_reset_reuse_test);
//!   - restore(s) after snapshot(s) ≡ the state at snapshot time, bit for
//!     bit, stats included — the checkpointed-replay foundation
//!     (mon_snapshot_test).
#pragma once

#include <cstddef>
#include <optional>
#include <string>

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

/// Common interface of all property monitors (Drct and ViaPSL), used by the
/// ABV checker and the benches.
class Monitor {
 public:
  virtual ~Monitor() = default;

  /// Feeds one observed interface event.
  virtual void observe(spec::Name name, sim::Time time) = 0;
  /// Steps a recorded event range back-to-back.  Semantically identical to
  /// calling observe() once per event — same verdict, same stats, every
  /// event stepped even past a violation — the concrete monitors merely
  /// override it to skip the per-event virtual dispatch.  Replay paths
  /// (MonitorModule::BatchPolicy::ReplayAll, the campaign engine) lean on
  /// that equivalence for their bit-identity guarantees; the range form is
  /// what lets the checkpointed engine replay only a mutant's suffix.
  virtual void observe_batch(const spec::TimedEvent* begin,
                             const spec::TimedEvent* end);
  /// Whole-trace convenience form of the range overload above.
  void observe_batch(const spec::Trace& slice) {
    observe_batch(slice.data(), slice.data() + slice.size());
  }
  /// Steps a recorded event range with every time later by `shift`
  /// (saturating): one piece of a spec::TraceView, which is how the
  /// campaign engine replays a mutant without materializing it.  Shift 0
  /// is observe_batch(); any other shift is an observe(name, time + shift)
  /// loop, which the observe_batch contract makes byte-identical to a
  /// batch over the re-timed events.  The VM overrides it with its batched
  /// loop.
  virtual void observe_shifted(const spec::TimedEvent* begin,
                               const spec::TimedEvent* end, sim::Time shift);
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

  /// Serializes the complete mutable state — recognizers, stats, verdict,
  /// violation, timing registers — into `out` (cleared first; capacity
  /// reused).  The compiled plan is not part of the state: a snapshot may
  /// be restored into any instance of the same kind stamped from the same
  /// plan.
  virtual void snapshot(Snapshot& out) const = 0;
  /// Inverse of snapshot(): afterwards the instance is bit-identical to
  /// the one snapshot() saw — continuing observation is indistinguishable
  /// from an uninterrupted run (mon_snapshot_test).  Throws
  /// std::logic_error when `in` was written by a different monitor kind.
  virtual void restore(const Snapshot& in) = 0;
};

/// Shared snapshot encoding of a violation report (all monitor kinds carry
/// one): presence flag, ordinal, time, name and the reason's code words.
/// The detail text is not stored — restore_violation clears it, and a
/// monitor that writes details re-renders them after restoring.
void snapshot_violation(Snapshot& out, const std::optional<Violation>& v);
void restore_violation(SnapshotReader& in, std::optional<Violation>& v);

}  // namespace loom::mon
