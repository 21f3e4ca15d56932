// Recognizer for a fragment F = ({R1..Rn}, #): the synchronous parallel
// composition of the range recognizers of the Ri (paper §6).
//
// Every event routed to the fragment is offered to all child recognizers
// simultaneously; this is what bounds Drct per-event work by |α(F)| for the
// active fragment.  The fragment terminates with Ok when a stopping name
// (Ac) arrives and every child terminated (Ok, or Nok under ∨ with at least
// one Ok); any child Err aborts the whole property monitor.
#pragma once

#include <cstddef>
#include <vector>

#include "mon/range_recognizer.hpp"
#include "sim/time.hpp"

namespace loom::mon {

class FragmentRecognizer {
 public:
  FragmentRecognizer(const spec::FragmentPlan& plan, MonitorStats& stats);

  void start();
  void reset();

  /// Checkpoint support: own flags/timestamp plus every child, in index
  /// order (mon/snapshot.hpp).
  void snapshot(Snapshot& out) const;
  void restore(SnapshotReader& in);

  enum class Out : std::uint8_t { None, Ok, Err };

  Out step(spec::Name name, sim::Time time);

  /// True once the fragment could be considered complete (every range at
  /// its lower bound under ∧, some range at its lower bound under ∨).
  bool min_complete() const { return min_complete_; }
  sim::Time min_complete_time() const { return min_complete_time_; }

  /// True when any child consumed one of its names in this round.
  bool in_progress() const { return in_progress_; }

  /// Explanation of the last Err output: the reason of the child whose
  /// error aborted the step.  That is the first child in the Error state,
  /// since the step stops at the first child error and every child before
  /// it stepped cleanly.
  spec::Reason error_reason() const;
  const spec::FragmentPlan& plan() const { return *plan_; }
  const RangeRecognizer& child(std::size_t i) const { return children_[i]; }
  std::size_t child_count() const { return children_.size(); }

  /// Children bits + min-complete flag + in-progress flag + 64-bit
  /// timestamp of the min-complete instant (used by timed monitors).
  std::size_t space_bits() const;

 private:
  bool compute_min_complete() const;

  const spec::FragmentPlan* plan_;
  MonitorStats* stats_;
  std::vector<RangeRecognizer> children_;
  bool min_complete_ = false;
  bool in_progress_ = false;
  sim::Time min_complete_time_;
};

}  // namespace loom::mon
