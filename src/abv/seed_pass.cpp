#include "abv/seed_pass.hpp"

#include "support/diagnostics.hpp"

namespace loom::abv {

ValidStepper::ValidStepper(const mon::CompiledProperty& compiled,
                           mon::Monitor& monitor, const spec::Trace& valid,
                           const CoverageSinks& sinks)
    : moves_(compiled.plan().alphabet),
      monitor_(monitor),
      valid_(valid),
      alphabet_(sinks.alphabet) {
  if (!compiled.property().is_antecedent()) return;
  std::optional<RecognizerCoverage>& rec = sinks.recognizer;
  if (compiled.chosen() == mon::Backend::Drct) {
    drct_ = static_cast<const mon::AntecedentMonitor*>(&monitor);
    if (!rec) rec.emplace(*drct_);
  } else if (compiled.chosen() == mon::Backend::Vm) {
    vm_ = static_cast<const mon::VmMonitor*>(&monitor);
    if (!rec) rec.emplace(*vm_);
  } else {
    return;
  }
  recognizer_ = &*rec;
}

void ValidStepper::step_to(std::size_t position) {
  LOOM_DASSERT(at_ <= position && position <= valid_.size());
  const spec::TimedEvent* const first = valid_.data() + at_;
  const spec::TimedEvent* const last = valid_.data() + position;
  at_ = position;
  if (recognizer_ == nullptr) {
    monitor_.observe_batch(first, last);
    for (const spec::TimedEvent* ev = first; ev != last; ++ev) {
      alphabet_.record(ev->name);
    }
    return;
  }
  for (const spec::TimedEvent* ev = first; ev != last; ++ev) {
    monitor_.observe(ev->name, ev->time);
    alphabet_.record(ev->name);
    if (ev != valid_.data() && !moves_.test(ev->name)) continue;
    if (vm_ != nullptr) {
      recognizer_->sample(*vm_);
    } else {
      recognizer_->sample(*drct_);
    }
  }
}

ValidRecord ValidStepper::finish() {
  step_to(valid_.size());
  monitor_.finish(valid_.empty() ? sim::Time::zero() : valid_.back().time);
  return {monitor_.stats(), monitor_.verdict() == mon::Verdict::Violated};
}

}  // namespace loom::abv
