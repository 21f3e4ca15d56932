//! The one monitor walk of a valid trace (the valid phase of the paper's
//! Fig. 1 loop): everything the campaign reports about a seed's valid
//! trace besides the oracle's verdict comes out of it.
//!
//! The campaign engine walks each seed's valid trace exactly once.  With a
//! positive checkpoint stride, the cache-entry build walks it with a
//! ladder — recording the checkpoint rungs the mutants resume from — and
//! stores the record in the entry, which the seed's valid unit merges; at
//! stride 0 the valid unit walks it itself, without a ladder.  Both call
//! walk_valid_trace().
//!
//! Determinism: the record is a pure function of (property, trace) given a
//! fresh or just-reset monitor of the compiled property, so it does not
//! depend on which unit — or which thread — walks.
//! Ownership: the record owns its coverage rows; nothing is borrowed.
#pragma once

#include <optional>

#include "abv/coverage.hpp"
#include "mon/checkpoint_ladder.hpp"
#include "mon/compiled.hpp"
#include "mon/stats.hpp"

namespace loom::abv {

struct ValidRecord {
  mon::MonitorStats stats;  // after finish()
  bool violated = false;    // the monitor's verdict was Violated
  std::optional<AlphabetCoverage> alphabet;      // always set by the walk
  std::optional<RecognizerCoverage> recognizer;  // Drct/Vm antecedents only
};

/// Steps `valid` through `monitor` — a fresh or just-reset instance of
/// `compiled`'s chosen backend — records every name for alphabet coverage,
/// samples recognizer coverage (Drct or Vm antecedents: both number their
/// range states alike) and finishes at the trace's last event.  Given a
/// ladder, the walk goes in `stride` chunks and records the rungs on the
/// way (mon::CheckpointLadder::record).  A sampled antecedent steps per
/// event; anything else steps each chunk with one observe_batch — the
/// monitor's bytes and stats are the same either way.
ValidRecord walk_valid_trace(const mon::CompiledProperty& compiled,
                             mon::Monitor& monitor, const spec::Trace& valid,
                             mon::CheckpointLadder* ladder = nullptr,
                             std::size_t stride = 0);

}  // namespace loom::abv
