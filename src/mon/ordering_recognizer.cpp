#include "mon/ordering_recognizer.hpp"

#include "mon/snapshot.hpp"

namespace loom::mon {

void OrderingRecognizer::snapshot(Snapshot& out) const {
  out.put_u64(active_);
  for (const auto& f : fragments_) f.snapshot(out);
}

void OrderingRecognizer::restore(SnapshotReader& in) {
  active_ = static_cast<std::size_t>(in.u64());
  for (auto& f : fragments_) f.restore(in);
}

OrderingRecognizer::OrderingRecognizer(const spec::OrderingPlan& plan,
                                       MonitorStats& stats)
    : plan_(&plan), stats_(&stats) {
  fragments_.reserve(plan.fragments.size());
  for (const auto& fp : plan.fragments) fragments_.emplace_back(fp, stats);
}

void OrderingRecognizer::activate() {
  active_ = 0;
  fragments_.front().start();
}

void OrderingRecognizer::restart() {
  for (auto& f : fragments_) f.reset();
  activate();
}

OrderingRecognizer::Out OrderingRecognizer::step(spec::Name name,
                                                 sim::Time time) {
  stats_->add();  // active-fragment dispatch
  switch (fragments_[active_].step(name, time)) {
    case FragmentRecognizer::Out::None:
      return Out::None;
    case FragmentRecognizer::Out::Err:
      return Out::Err;
    case FragmentRecognizer::Out::Ok:
      break;
  }
  if (active_ + 1 == fragments_.size()) return Out::Completed;
  ++active_;
  stats_->add();
  fragments_[active_].start();
  // The stopping name of the previous fragment is the first event of the
  // new one; by construction it lies in the new fragment's alphabet, so
  // this nested step can neither complete nor fail.
  (void)fragments_[active_].step(name, time);
  return Out::None;
}

bool OrderingRecognizer::in_progress() const {
  if (active_ > 0) return true;
  return fragments_.front().in_progress();
}

std::size_t OrderingRecognizer::space_bits() const {
  std::size_t bits = bits_for_value(fragments_.size());
  for (const auto& f : fragments_) bits += f.space_bits();
  return bits;
}

}  // namespace loom::mon
