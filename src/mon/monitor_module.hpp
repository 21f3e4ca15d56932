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
//! Determinism: observe_batch(ReplayAll) is bit-identical to a per-event
//! observe() loop — verdict, stats and violation alike (mon_batch_test);
//! StopAtViolation intentionally stops early and reports at the cause.
#pragma once

#include <functional>
#include <vector>

#include "mon/verdict.hpp"
#include "sim/module.hpp"
#include "spec/reference.hpp"

namespace loom::mon {

class MonitorModule final : public sim::Module {
 public:
  MonitorModule(sim::Scheduler& scheduler, std::string name, Monitor& monitor,
                const spec::Alphabet& alphabet, sim::Module* parent = nullptr);

  /// Disarms a still-pending watchdog: a queued entry must never outlive
  /// the module it captures (the campaign's replay modules die long before
  /// their scheduler would drain).
  ~MonitorModule() override {
    if (watchdog_token_ != nullptr) *watchdog_token_ = true;
  }

  /// Feeds an event stamped with the current simulation time.
  void observe(spec::Name name);
  void observe(spec::Name name, sim::Time time);

  /// How observe_batch treats the tail of a violating slice.
  enum class BatchPolicy {
    /// Stop stepping at the first violation: the violation report points
    /// at its cause and the MonitorStats counters cover only the events up
    /// to it (unlike an observe() loop that keeps feeding afterwards).
    StopAtViolation,
    /// Step every event, violated or not, through the monitor's own
    /// devirtualized Monitor::observe_batch — verdict and stats land
    /// bit-identical to a per-event observe() loop.
    ReplayAll,
  };

  /// Batched fast path for recorded trace slices (see bench_throughput's
  /// BM_MonitorModuleBatch for the per-event comparison): steps the
  /// monitor back-to-back and runs the violation-callback / watchdog
  /// bookkeeping once at the end of the slice instead of per event.
  /// Events carry their own timestamps, so deadline overruns are still
  /// detected mid-slice; the callback firing coalesces to the end of the
  /// batch.  `begin` skips the slice's first events — the checkpointed
  /// campaign engine restores the monitor to the state after
  /// trace[0, begin) and replays only the suffix (same bytes out as a full
  /// replay, by the Monitor::snapshot contract).
  void observe_batch(const spec::Trace& slice,
                     BatchPolicy policy = BatchPolicy::StopAtViolation,
                     std::size_t begin = 0);

  /// Ends observation (typically at the end of simulation).
  void finish();

  /// Re-arms the module for a fresh observation run over the same monitor:
  /// disarms any queued watchdog and forgets the reported violation, so the
  /// callbacks fire again on the next one.  The borrowed monitor is reset
  /// separately (Monitor::reset()); together the pair is bit-identical to
  /// constructing a fresh module + fresh monitor, so a replay host can be
  /// reset per replay instead of rebuilt (MonitorModuleReset in
  /// mon_reset_reuse_test locks the equivalence).
  void reset();

  /// Toggles watchdog arming (default on).  A pure replay host whose
  /// scheduler is never pumped gains nothing from the queued entry — it
  /// can never fire — so a host replaying thousands of mutants turns
  /// arming off to keep the kernel's timed queue empty.
  /// Observable behavior is unchanged wherever the scheduler never runs;
  /// in-simulation users must leave it on.
  void set_arm_watchdogs(bool arm) {
    arm_watchdogs_ = arm;
    if (!arm) disarm_watchdog();
  }

  Monitor& monitor() { return monitor_; }
  const spec::Alphabet& alphabet() const { return alphabet_; }

  using ViolationCallback = std::function<void(const Violation&)>;
  void on_violation(ViolationCallback cb) {
    callbacks_.push_back(std::move(cb));
  }

 private:
  void after_step();
  void arm_watchdog();
  void disarm_watchdog() {
    if (watchdog_token_ != nullptr) *watchdog_token_ = true;
    watchdog_token_ = nullptr;
    armed_deadline_.reset();
  }

  Monitor& monitor_;
  const spec::Alphabet& alphabet_;
  std::vector<ViolationCallback> callbacks_;
  bool violation_reported_ = false;
  bool arm_watchdogs_ = true;
  std::optional<sim::Time> armed_deadline_;
  sim::Scheduler::CancelToken watchdog_token_;
};

}  // namespace loom::mon
