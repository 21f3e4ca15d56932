// Recognizer for a loose-ordering L = F1 < ... < Fq: the sequential
// composition of the fragment recognizers (paper §6).
//
// Only the active fragment receives events, which gives the Drct time
// complexity Θ(max_i |α(Fi)|).  The ok of fragment Fi starts F(i+1) on the
// same event (the stopping name of Fi is the first name of F(i+1)); the ok
// of the last fragment completes the round.
#pragma once

#include <cstddef>
#include <vector>

#include "mon/fragment_recognizer.hpp"

namespace loom::mon {

class OrderingRecognizer {
 public:
  OrderingRecognizer(const spec::OrderingPlan& plan, MonitorStats& stats);

  /// Starts the round: fragment F1 begins waiting.
  void activate();
  /// Full reset + activate (used at the reset points of the patterns).
  void restart();

  /// Checkpoint support: active-fragment index and every fragment, in
  /// index order (mon/snapshot.hpp).
  void snapshot(Snapshot& out) const;
  void restore(SnapshotReader& in);

  enum class Out : std::uint8_t { None, Completed, Err };

  Out step(spec::Name name, sim::Time time);

  std::size_t active_fragment() const { return active_; }
  const FragmentRecognizer& fragment(std::size_t i) const {
    return fragments_[i];
  }
  std::size_t fragment_count() const { return fragments_.size(); }

  /// True when the current round consumed at least one event.
  bool in_progress() const;

  /// Explanation of the last Err output: an error stops the chain in the
  /// fragment that raised it.
  spec::Reason error_reason() const {
    return fragments_[active_].error_reason();
  }
  const spec::OrderingPlan& plan() const { return *plan_; }

  /// Children bits + the active-fragment index.
  std::size_t space_bits() const;

 private:
  const spec::OrderingPlan* plan_;
  MonitorStats* stats_;
  std::vector<FragmentRecognizer> fragments_;
  std::size_t active_ = 0;
};

}  // namespace loom::mon
