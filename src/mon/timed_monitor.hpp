// Drct monitor for a timed implication constraint T = (P => Q, t).
//
// The chain P ++ Q is recognized with a cyclic ordering recognizer (the end
// of Q is the reset point).  Following the paper's SystemC monitor, two
// simulation-time variables are kept:
//   start - set when P becomes min-complete (the earliest instant P can be
//           considered finished; for the common n[1,1] antecedents this is
//           exactly the time of the triggering event);
//   stop  - set when Q's final fragment becomes min-complete
//           (earliest-match completion of Q).
// The property is violated when stop - start > t, when any event is
// observed past the deadline while Q is unfinished, or when observation
// ends past the deadline with Q unfinished.
#pragma once

#include <memory>
#include <optional>

#include "mon/ordering_recognizer.hpp"
#include "mon/verdict.hpp"

namespace loom::mon {

class TimedImplicationMonitor final : public Monitor {
 public:
  explicit TimedImplicationMonitor(spec::TimedImplication property);
  /// Instantiation from a precomputed plan (mon::CompiledProperty): the
  /// plan must describe `property`; no attribute computation runs here.
  TimedImplicationMonitor(spec::TimedImplication property,
                          std::shared_ptr<const spec::OrderingPlan> plan);

  void observe(spec::Name name, sim::Time time) override;
  using Monitor::observe_batch;
  void observe_batch(const spec::TimedEvent* begin,
                     const spec::TimedEvent* end) override {
    for (const auto* ev = begin; ev != end; ++ev) {
      if (verdict_ == Verdict::Violated) {
        // Retired: observe() would charge each remaining event 0 ops, so
        // count the rest of the slice in one step.
        const auto rest = static_cast<std::uint64_t>(end - ev);
        stats_.events += rest;
        ordinal_ += rest;
        return;
      }
      observe(ev->name, ev->time);  // devirtualized
    }
  }
  void finish(sim::Time end_time) override;
  void poll(sim::Time now) override;
  std::optional<sim::Time> deadline() const override {
    return current_deadline();
  }

  Verdict verdict() const override { return verdict_; }
  const std::optional<Violation>& violation() const override {
    return violation_;
  }
  MonitorStats& stats() override { return stats_; }
  std::size_t space_bits() const override;
  void reset() override;
  void snapshot(Snapshot& out) const override;
  void restore(const Snapshot& in) override;

  /// Completed P=>Q rounds.
  std::uint64_t completed_rounds() const { return rounds_; }

  /// The deadline of the currently armed obligation, if any (used by the
  /// in-simulation watchdog of MonitorModule).
  std::optional<sim::Time> current_deadline() const {
    if (armed_ && !q_done_) return t_start_ + property_.bound;
    return std::nullopt;
  }

  const spec::TimedImplication& property() const { return property_; }
  const spec::OrderingPlan& plan() const { return *plan_; }

 private:
  void update_timing(sim::Time now, std::size_t ordinal, spec::Name name);
  void violate(std::size_t ordinal, sim::Time time, spec::Name name,
               spec::Reason reason);

  spec::TimedImplication property_;
  std::shared_ptr<const spec::OrderingPlan> plan_;
  MonitorStats stats_;
  OrderingRecognizer recognizer_;
  Verdict verdict_ = Verdict::Monitoring;
  std::optional<Violation> violation_;

  bool armed_ = false;   // P min-complete; obligation running
  bool q_done_ = false;  // Q min-complete within this round
  sim::Time t_start_;
  sim::Time t_stop_;
  std::uint64_t rounds_ = 0;
  std::size_t ordinal_ = 0;
};

}  // namespace loom::mon
