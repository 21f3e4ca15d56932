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
  if (!compiled.property().is_antecedent() ||
      compiled.chosen() != mon::Backend::Drct) {
    return;
  }
  std::optional<RecognizerCoverage>& rec = sinks.recognizer;
  drct_ = static_cast<const mon::AntecedentMonitor*>(&monitor);
  if (!rec) rec.emplace(*drct_);
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
    recognizer_->sample(*drct_);
  }
}

std::optional<RecognizerCoverage> initial_recognizer_coverage(
    const mon::CompiledProperty& compiled) {
  // A stepper emplaces the rows a walk samples into as it starts.
  const auto monitor = compiled.instantiate();
  const spec::Trace none;
  AlphabetCoverage alphabet(compiled.property().alphabet());
  std::optional<RecognizerCoverage> rows;
  const ValidStepper start(compiled, *monitor, none, {alphabet, rows});
  return rows;
}

ValidRecord ValidStepper::finish() {
  step_to(valid_.size());
  monitor_.finish(valid_.empty() ? sim::Time::zero() : valid_.back().time);
  return {monitor_.stats(), monitor_.verdict() == mon::Verdict::Violated};
}

}  // namespace loom::abv
