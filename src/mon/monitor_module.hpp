//! In-simulation monitor binding (the SystemC face of the Drct monitors).
//!
//! A MonitorModule lives in the module hierarchy next to the DUV, stamps
//! observed interface events with the kernel's current time, forwards them
//! to a property monitor, fires violation callbacks, and keeps a watchdog
//! armed on the deadline of timed implication constraints so that overdue
//! consequents are reported at the instant the deadline passes, not at the
//! next event.
//!
//! Ownership: the module borrows its Monitor, Scheduler and Alphabet — all
//! must outlive it; its destructor disarms any still-queued watchdog so a
//! dead module is never called back.
//! Thread-safety: none — modules live on the (single-threaded) simulation
//! kernel.
#pragma once

#include <functional>
#include <vector>

#include "mon/verdict.hpp"
#include "sim/module.hpp"

namespace loom::mon {

class MonitorModule final : public sim::Module {
 public:
  MonitorModule(sim::Scheduler& scheduler, std::string name, Monitor& monitor,
                const spec::Alphabet& alphabet, sim::Module* parent = nullptr);

  /// Disarms a still-pending watchdog: a queued entry must never outlive
  /// the module it captures.
  ~MonitorModule() override {
    if (watchdog_token_ != nullptr) *watchdog_token_ = true;
  }

  /// Feeds an event stamped with the current simulation time.
  void observe(spec::Name name);
  void observe(spec::Name name, sim::Time time);

  /// Ends observation (typically at the end of simulation).
  void finish();

  Monitor& monitor() { return monitor_; }
  const spec::Alphabet& alphabet() const { return alphabet_; }

  using ViolationCallback = std::function<void(const Violation&)>;
  void on_violation(ViolationCallback cb) {
    callbacks_.push_back(std::move(cb));
  }

 private:
  void after_step();
  void arm_watchdog();

  Monitor& monitor_;
  const spec::Alphabet& alphabet_;
  std::vector<ViolationCallback> callbacks_;
  bool violation_reported_ = false;
  std::optional<sim::Time> armed_deadline_;
  sim::Scheduler::CancelToken watchdog_token_;
};

}  // namespace loom::mon
