// Elementary recognizer for a range R = n[u,v] (paper Fig. 5).
//
// The recognizer runs in a recognition context (B, C, Ac, Af, s) computed
// by spec::plan_ordering (Fig. 4).  States:
//
//   Idle             (s0) waiting to be started
//   WaitFirst        (s1) started, no range of the fragment has begun
//   WaitFirstSibling (s2) started, a sibling range is already counting
//   Counting         (s3) counting occurrences of n with cpt
//   DoneSibling      (s4) block finished (cpt >= u), a sibling took over
//   Error            (s5) absorbing error state
//
// Outputs: Ok (range recognized), Nok (skipped, allowed only under a
// disjunctive parent), Err.  Termination (Ok/Nok) is triggered by a name of
// the stopping set Ac, which simultaneously starts the next fragment.
#pragma once

#include <cstdint>

#include "mon/stats.hpp"
#include "spec/attributes.hpp"
#include "spec/reason.hpp"

namespace loom::mon {

/// The reason a range automaton reports for failure `code` with block
/// counter `count`: the counter and the bound its sentence prints.  The
/// Drct recognizer and the VM both build their reasons here, so the two
/// backends report the same values by construction.
spec::Reason range_reason(spec::ReasonCode code, std::uint32_t count,
                          std::uint32_t lo, std::uint32_t hi);

class RangeRecognizer {
 public:
  enum class State : std::uint8_t {
    Idle,
    WaitFirst,
    WaitFirstSibling,
    Counting,
    DoneSibling,
    Error,
  };

  enum class Out : std::uint8_t { None, Ok, Nok, Err };

  RangeRecognizer(const spec::RangePlan& plan, MonitorStats& stats)
      : plan_(&plan), stats_(&stats) {}

  /// Activation (the `start` input of Fig. 5 without a simultaneous event).
  void start();

  /// Processes one event of the property alphabet.
  Out step(spec::Name name);

  void reset();

  /// Checkpoint support: state with error code, and counter
  /// (mon/snapshot.hpp).
  void snapshot(Snapshot& out) const;
  void restore(SnapshotReader& in);

  State state() const { return state_; }
  std::uint32_t count() const { return cpt_; }
  const spec::RangePlan& plan() const { return *plan_; }

  /// True once the block reached its lower bound (or finished).
  bool min_reached() const {
    return (state_ == State::Counting && cpt_ >= plan_->lo) ||
           state_ == State::DoneSibling;
  }
  /// True when the recognizer consumed at least one of its own names.
  bool started_counting() const {
    return state_ == State::Counting || state_ == State::DoneSibling;
  }

  /// Explanation of the last Err output.
  spec::Reason error_reason() const {
    return range_reason(error_, cpt_, plan_->lo, plan_->hi);
  }

  /// State bits: 3 (state encoding) + ceil(log2(v+1)) (the counter cpt).
  std::size_t space_bits() const {
    return 3 + bits_for_value(plan_->hi);
  }

 private:
  Out fail(spec::ReasonCode code);

  const spec::RangePlan* plan_;
  MonitorStats* stats_;
  State state_ = State::Idle;
  spec::ReasonCode error_ = spec::ReasonCode::None;
  std::uint32_t cpt_ = 0;
};

const char* to_string(RangeRecognizer::State s);

}  // namespace loom::mon
