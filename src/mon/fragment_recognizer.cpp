#include "mon/fragment_recognizer.hpp"

#include "mon/snapshot.hpp"

namespace loom::mon {

void FragmentRecognizer::snapshot(Snapshot& out) const {
  out.put_bool(min_complete_);
  out.put_bool(in_progress_);
  out.put_time(min_complete_time_);
  for (const auto& c : children_) c.snapshot(out);
}

void FragmentRecognizer::restore(SnapshotReader& in) {
  min_complete_ = in.boolean();
  in_progress_ = in.boolean();
  min_complete_time_ = in.time();
  for (auto& c : children_) c.restore(in);
}

FragmentRecognizer::FragmentRecognizer(const spec::FragmentPlan& plan,
                                       MonitorStats& stats)
    : plan_(&plan), stats_(&stats) {
  children_.reserve(plan.ranges.size());
  for (const auto& rp : plan.ranges) children_.emplace_back(rp, stats);
}

void FragmentRecognizer::start() {
  for (auto& c : children_) c.start();
  min_complete_ = false;
  in_progress_ = false;
}

void FragmentRecognizer::reset() {
  for (auto& c : children_) c.reset();
  min_complete_ = false;
  in_progress_ = false;
}

spec::Reason FragmentRecognizer::error_reason() const {
  for (const auto& c : children_) {
    if (c.state() == RangeRecognizer::State::Error) return c.error_reason();
  }
  return {};
}

bool FragmentRecognizer::compute_min_complete() const {
  stats_->add(children_.size());  // one bound check per child
  if (plan_->join == spec::Join::Conj) {
    for (const auto& c : children_) {
      if (!c.min_reached()) return false;
    }
    return true;
  }
  for (const auto& c : children_) {
    if (c.min_reached()) return true;
  }
  return false;
}

FragmentRecognizer::Out FragmentRecognizer::step(spec::Name name,
                                                 sim::Time time) {
  // Synchronous parallel composition: every child sees the event.
  std::size_t oks = 0;
  std::size_t noks = 0;
  for (auto& c : children_) {
    switch (c.step(name)) {
      case RangeRecognizer::Out::None:
        break;
      case RangeRecognizer::Out::Ok:
        ++oks;
        break;
      case RangeRecognizer::Out::Nok:
        ++noks;
        break;
      case RangeRecognizer::Out::Err:
        return Out::Err;
    }
  }
  stats_->add();  // accept-set test for the aggregate decision
  if (plan_->accept.test(name)) {
    // Stopping name with no child error: the child automata guarantee the
    // fragment's completion condition (∧: all Ok; ∨: >= 1 Ok).
    (void)oks;
    (void)noks;
    return Out::Ok;
  }
  stats_->add();  // in-fragment test
  if (plan_->alphabet.test(name)) {
    in_progress_ = true;
    if (!min_complete_ && compute_min_complete()) {
      stats_->add();
      min_complete_ = true;
      min_complete_time_ = time;
    }
  }
  return Out::None;
}

std::size_t FragmentRecognizer::space_bits() const {
  // min-complete + in-progress flags; the 64-bit timestamp register exists
  // only on the fragments a timed monitor reads (paper's sc_time start /
  // stop).
  std::size_t bits = 2 + (plan_->track_min_time ? 64 : 0);
  for (const auto& c : children_) bits += c.space_bits();
  return bits;
}

}  // namespace loom::mon
