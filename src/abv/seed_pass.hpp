//! The one monitor walk of a valid trace (the valid phase of the paper's
//! Fig. 1 loop): everything the campaign reports about a seed's valid
//! trace besides the oracle's verdict comes out of it.
//!
//! The campaign engine walks each seed's valid trace once per seed task
//! (abv/campaign.cpp).  The walk samples coverage into the shard's
//! accumulators, and it pauses at the stop points the task asks for — the
//! divergence positions of the seed's invalid mutants — so each of them
//! forks from the live state at its exact position.
//!
//! Determinism: the record, the coverage samples and the state at every
//! stop are pure functions of (property, trace) given a fresh or
//! just-reset monitor of the compiled property, so they do not depend on
//! which shard — or which thread — walks, nor on the stops.
//! Ownership: the walk borrows everything; the coverage it samples lands
//! in the caller's accumulators.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "abv/coverage.hpp"
#include "mon/compiled.hpp"
#include "mon/stats.hpp"

namespace loom::abv {

/// What the walk reports besides coverage.
struct ValidRecord {
  mon::MonitorStats stats;  // after finish()
  bool violated = false;    // the monitor's verdict was Violated
};

/// Where a walk records coverage.  The walk records every name into
/// `alphabet` and, for a Drct or Vm antecedent (both number their range
/// states alike), samples recognizer coverage into `recognizer`, emplacing
/// it from the monitor when it is empty.
struct CoverageSinks {
  AlphabetCoverage& alphabet;
  std::optional<RecognizerCoverage>& recognizer;
};

/// Steps a valid trace through a monitor in slices.  A sampled antecedent
/// steps per event and samples after the first event and after every event
/// of the property alphabet (no other event can move a range automaton);
/// anything else steps each slice with one observe_batch.  The monitor's
/// bytes and stats are the same either way.
class ValidStepper {
 public:
  /// `monitor` is a fresh or just-reset instance of `compiled`'s chosen
  /// backend; every argument must outlive the stepper.
  ValidStepper(const mon::CompiledProperty& compiled, mon::Monitor& monitor,
               const spec::Trace& valid, const CoverageSinks& sinks);

  /// Steps the events up to `position` (<= valid.size()) not yet stepped.
  void step_to(std::size_t position);
  /// Steps the rest of the trace and finishes at its last event.
  ValidRecord finish();

 private:
  const spec::NameSet& moves_;
  mon::Monitor& monitor_;
  const spec::Trace& valid_;
  AlphabetCoverage& alphabet_;
  RecognizerCoverage* recognizer_ = nullptr;
  const mon::AntecedentMonitor* drct_ = nullptr;
  const mon::VmMonitor* vm_ = nullptr;
  std::size_t at_ = 0;
};

/// Walks `valid` through `monitor` — a fresh or just-reset instance of
/// `compiled`'s chosen backend — recording coverage into `sinks`, and
/// finishes at the trace's last event.  Stop points: after exactly
/// `stops[i]` events (ascending, each <= valid.size()) the walk calls
/// `at_stop(stops[i])`, before finish(); the callback may read the live
/// monitor (save its state) but must not step it.
template <typename AtStop>
ValidRecord walk_valid_trace(const mon::CompiledProperty& compiled,
                             mon::Monitor& monitor, const spec::Trace& valid,
                             const CoverageSinks& sinks,
                             std::span<const std::size_t> stops,
                             AtStop&& at_stop) {
  ValidStepper stepper(compiled, monitor, valid, sinks);
  for (const std::size_t stop : stops) {
    stepper.step_to(stop);
    at_stop(stop);
  }
  return stepper.finish();
}

}  // namespace loom::abv
