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
//! A compact rung cannot hold a violation, so recording stops at the first
//! rung vm_save_rung refuses: count() may fall short of size / stride, and
//! the mutants past it resume from an earlier floor — the same bytes, since
//! replaying from any floor of the shared prefix is exact.
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
  /// Feeds `trace` through `recorder` — fresh or just reset — and keeps its
  /// state after every `stride` events (stride > 0), replacing any earlier
  /// content.  The tail past the last full stride has no rung.
  void record(Monitor& recorder, const spec::Trace& trace, std::size_t stride);

  /// Rungs recorded: rung k is the state after (k + 1)·stride events.
  std::size_t count() const { return count_; }
  /// True when the rungs are compact VM rungs (the recorder was a
  /// VmMonitor), false for Snapshot rungs.
  bool compact() const { return rung_words_ != 0; }

  /// Restores rung k into a monitor of the recorder's kind and program
  /// shape (a VmMonitor for compact rungs), overwriting its whole state.
  void restore_into(std::size_t k, Monitor& monitor) const;

 private:
  std::size_t count_ = 0;
  std::size_t rung_words_ = 0;  // compact rung size; 0: Snapshot rungs
  std::vector<std::uint64_t> slab_;
  std::vector<Snapshot> snapshots_;
};

}  // namespace loom::mon
