//! The monitor checkpoint ladder of one valid trace: the recorder monitor's
//! state after every `stride` events, from which a mutant that shares the
//! trace's first p events resumes at rung p/stride - 1 and replays only the
//! suffix.
//!
//! Two rung formats sit behind one interface, chosen by the recorder:
//!   - a VmMonitor recorder writes compact rungs (vm_save_rung, mon/vm.hpp)
//!     into one flat word slab — rung k at k·vm_rung_words(program) — so a
//!     seed's whole ladder is a single allocation and a restore is a copy;
//!   - any other monitor (Drct, ViaPSL) writes one mon::Snapshot per rung.
//! A compact rung cannot hold a violation, so the ladder keeps no rung from
//! the first one vm_save_rung refuses on: count() may fall short of
//! size / stride, and the mutants past it resume from an earlier floor —
//! the same bytes, since replaying from any floor of the shared prefix is
//! exact.  The recorder still walks the whole trace, so the walk that
//! records the ladder can also be the trace's one accounted monitor pass.
//!
//! Ownership: the ladder owns its rungs; it is written once by record() and
//! read-only afterwards (the campaign publishes it through
//! support::TraceCache, so concurrent restore_into() calls are safe).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mon/snapshot.hpp"
#include "mon/verdict.hpp"

namespace loom::mon {

class CheckpointLadder {
 public:
  /// Walks `trace` through `recorder` — fresh or just reset — in stride
  /// chunks (stride > 0), calling `step(first, last)` to feed events
  /// [first, last) to it, and keeps its state after every full chunk,
  /// replacing any earlier content.  The tail past the last full chunk is
  /// stepped too but has no rung.  The caller's `step` decides how the
  /// events are fed (one observe_batch, or observe per event to sample
  /// between them); it must feed exactly the events it is given.
  template <typename Step>
  void record(Monitor& recorder, const spec::Trace& trace, std::size_t stride,
              Step&& step) {
    const std::size_t rungs = begin_recording(recorder, trace.size(), stride);
    const spec::TimedEvent* const events = trace.data();
    bool saving = true;
    for (std::size_t k = 0; k < rungs; ++k) {
      step(events + k * stride, events + (k + 1) * stride);
      if (saving) saving = save_rung(recorder, k);
    }
    step(events + rungs * stride, events + trace.size());
    end_recording();
  }

  /// record() feeding each chunk with one observe_batch.
  void record(Monitor& recorder, const spec::Trace& trace,
              std::size_t stride) {
    record(recorder, trace, stride,
           [&recorder](const spec::TimedEvent* first,
                       const spec::TimedEvent* last) {
             recorder.observe_batch(first, last);
           });
  }

  /// Rungs recorded: rung k is the state after (k + 1)·stride events.
  std::size_t count() const { return count_; }
  /// True when the rungs are compact VM rungs (the recorder was a
  /// VmMonitor), false for Snapshot rungs.
  bool compact() const { return rung_words_ != 0; }

  /// Restores rung k into a monitor of the recorder's kind and program
  /// shape (a VmMonitor for compact rungs), overwriting its whole state.
  void restore_into(std::size_t k, Monitor& monitor) const;

 private:
  // Clears the ladder and sizes it for `events / stride` rungs of the
  // recorder's format; returns that rung count.
  std::size_t begin_recording(Monitor& recorder, std::size_t events,
                              std::size_t stride);
  // Saves the recorder's state as rung k (== count()); false, saving
  // nothing, when a compact rung refuses the state.
  bool save_rung(Monitor& recorder, std::size_t k);
  // Trims the slab to the rungs kept.
  void end_recording();

  std::size_t count_ = 0;
  std::size_t rung_words_ = 0;  // compact rung size; 0: Snapshot rungs
  std::vector<std::uint64_t> slab_;
  std::vector<Snapshot> snapshots_;
};

}  // namespace loom::mon
