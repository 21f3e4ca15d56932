#include "mon/timed_monitor.hpp"

#include <stdexcept>

#include "mon/snapshot.hpp"
#include "support/diagnostics.hpp"

namespace loom::mon {
namespace {
// Format tag (see antecedent_monitor.cpp): kind-checks restore().
constexpr std::uint32_t kSnapshotKind = 0x54494D44;  // "TIMD"
}  // namespace

TimedImplicationMonitor::TimedImplicationMonitor(spec::TimedImplication property)
    : TimedImplicationMonitor(std::move(property), nullptr) {}

TimedImplicationMonitor::TimedImplicationMonitor(
    spec::TimedImplication property,
    std::shared_ptr<const spec::OrderingPlan> plan)
    : property_(std::move(property)),
      plan_(plan != nullptr ? std::move(plan)
                            : std::make_shared<const spec::OrderingPlan>(
                                  spec::plan_timed(property_))),
      recognizer_(*plan_, stats_) {
  recognizer_.activate();
}

void TimedImplicationMonitor::violate(std::size_t ordinal, sim::Time time,
                                      spec::Name name, spec::Reason reason) {
  verdict_ = Verdict::Violated;
  violation_ = Violation{ordinal, time, name, reason};
}

void TimedImplicationMonitor::update_timing(sim::Time now, std::size_t ordinal,
                                            spec::Name name) {
  const std::size_t p_last = plan_->p_boundary - 1;
  const std::size_t q_last = plan_->fragments.size() - 1;
  const std::size_t active = recognizer_.active_fragment();
  stats_.add(2);  // the two stage comparisons below
  if (!armed_ && (active > p_last ||
                  (active == p_last &&
                   recognizer_.fragment(p_last).min_complete()))) {
    armed_ = true;
    t_start_ = active == p_last
                   ? recognizer_.fragment(p_last).min_complete_time()
                   : now;
    stats_.add(2);
  }
  if (armed_ && !q_done_ && active == q_last &&
      recognizer_.fragment(q_last).min_complete()) {
    q_done_ = true;
    t_stop_ = recognizer_.fragment(q_last).min_complete_time();
    stats_.add(3);  // flag + assignment + deadline comparison
    if (t_stop_ - t_start_ > property_.bound) {
      violate(ordinal, t_stop_, name,
              {spec::ReasonCode::FinishedLateBy,
               {},
               {t_stop_ - t_start_, property_.bound}});
    }
  }
}

void TimedImplicationMonitor::observe(spec::Name name, sim::Time time) {
  const auto before = stats_.begin_event();
  const std::size_t ordinal = ordinal_++;
  if (verdict_ == Verdict::Violated) {
    stats_.end_event(before);
    return;
  }
  stats_.add();  // alphabet filter
  if (!plan_->alphabet.test(name)) {
    stats_.end_event(before);
    return;
  }
  stats_.add();  // deadline pre-check
  if (armed_ && !q_done_ && time > t_start_ + property_.bound) {
    violate(ordinal, time, name, {spec::ReasonCode::DeadlineElapsed});
    stats_.end_event(before);
    return;
  }
  switch (recognizer_.step(name, time)) {
    case OrderingRecognizer::Out::None:
      update_timing(time, ordinal, name);
      if (verdict_ != Verdict::Violated) {
        verdict_ = recognizer_.in_progress() ? Verdict::Pending
                                             : Verdict::Monitoring;
      }
      break;
    case OrderingRecognizer::Out::Completed: {
      // The reset point: the completing event restarts the chain at F1.
      ++rounds_;
      armed_ = false;
      q_done_ = false;
      recognizer_.restart();
      (void)recognizer_.step(name, time);  // same event opens fragment 0
      update_timing(time, ordinal, name);
      if (verdict_ != Verdict::Violated) verdict_ = Verdict::Pending;
      break;
    }
    case OrderingRecognizer::Out::Err:
      violate(ordinal, time, name, recognizer_.error_reason());
      break;
  }
  stats_.end_event(before);
}

void TimedImplicationMonitor::poll(sim::Time now) {
  if (verdict_ == Verdict::Violated) return;
  if (armed_ && !q_done_ && now > t_start_ + property_.bound) {
    violate(ordinal_, now, spec::kInvalidName,
            {spec::ReasonCode::DeadlineWatchdog});
  }
}

void TimedImplicationMonitor::finish(sim::Time end_time) {
  if (verdict_ == Verdict::Violated) return;
  if (armed_ && !q_done_ && end_time > t_start_ + property_.bound) {
    violate(ordinal_, end_time, spec::kInvalidName,
            {spec::ReasonCode::EndedLate});
    return;
  }
  // Earliest-match: a round whose consequent reached its minimum within the
  // deadline has met its obligation even if the final block is still open.
  if (q_done_) verdict_ = Verdict::Monitoring;
}

std::size_t TimedImplicationMonitor::space_bits() const {
  // Recognizer state (including the two sc_time registers of the paper's
  // §6, carried by the end-of-P / end-of-Q fragments) + verdict + the
  // armed / q_done flags.
  return recognizer_.space_bits() + 2 + 2;
}

void TimedImplicationMonitor::reset() {
  // Stats first: restart() re-runs the activation ops a fresh monitor
  // carries; clearing afterwards would lose them (mon_reset_reuse_test).
  stats_.reset();
  recognizer_.restart();
  verdict_ = Verdict::Monitoring;
  violation_.reset();
  armed_ = false;
  q_done_ = false;
  rounds_ = 0;
  ordinal_ = 0;
}

void TimedImplicationMonitor::snapshot(Snapshot& out) const {
  out.clear();
  out.put_u64(snapshot_tag(kSnapshotKind));
  stats_.snapshot(out);
  recognizer_.snapshot(out);
  out.put_u64(static_cast<std::uint64_t>(verdict_));
  snapshot_violation(out, violation_);
  out.put_bool(armed_);
  out.put_bool(q_done_);
  out.put_time(t_start_);
  out.put_time(t_stop_);
  out.put_u64(rounds_);
  out.put_u64(ordinal_);
}

void TimedImplicationMonitor::restore(const Snapshot& in) {
  SnapshotReader r(in);
  check_snapshot_tag(r.u64(), kSnapshotKind,
                     "TimedImplicationMonitor::restore");
  stats_.restore(r);
  recognizer_.restore(r);
  verdict_ = static_cast<Verdict>(r.u64());
  restore_violation(r, violation_);
  armed_ = r.boolean();
  q_done_ = r.boolean();
  t_start_ = r.time();
  t_stop_ = r.time();
  rounds_ = r.u64();
  ordinal_ = static_cast<std::size_t>(r.u64());
  LOOM_DASSERT(r.exhausted());  // format drift: snapshot wrote more fields
}

void TimedImplicationMonitor::fork_from(const Monitor& live) {
  constexpr const char* kWho = "TimedImplicationMonitor::fork_from";
  const auto& src = fork_source<TimedImplicationMonitor>(live, kWho);
  if (src.plan_ != plan_) [[unlikely]] {
    reject_fork(kWho, "an instance of another plan");
  }
  stats_ = src.stats_;
  recognizer_.copy_state(src.recognizer_);
  verdict_ = src.verdict_;
  violation_ = src.violation_;
  armed_ = src.armed_;
  q_done_ = src.q_done_;
  t_start_ = src.t_start_;
  t_stop_ = src.t_stop_;
  rounds_ = src.rounds_;
  ordinal_ = src.ordinal_;
}

}  // namespace loom::mon
