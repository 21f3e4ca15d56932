#include "abv/seed_pass.hpp"

namespace loom::abv {

ValidRecord walk_valid_trace(const mon::CompiledProperty& compiled,
                             mon::Monitor& monitor, const spec::Trace& valid,
                             mon::CheckpointLadder* ladder,
                             std::size_t stride) {
  const spec::Property& property = compiled.property();
  ValidRecord record;
  AlphabetCoverage& alphabet = record.alphabet.emplace(property.alphabet());
  const mon::AntecedentMonitor* drct = nullptr;
  const mon::VmMonitor* vm = nullptr;
  if (property.is_antecedent()) {
    if (compiled.chosen() == mon::Backend::Drct) {
      drct = static_cast<const mon::AntecedentMonitor*>(&monitor);
      record.recognizer.emplace(*drct);
    } else if (compiled.chosen() == mon::Backend::Vm) {
      vm = static_cast<const mon::VmMonitor*>(&monitor);
      record.recognizer.emplace(*vm);
    }
  }
  // Only events of the property alphabet can move a range automaton, so
  // sampling after the first event and after each of those sees every
  // state a per-event sample would.
  const spec::NameSet& moves = compiled.plan().alphabet;
  const spec::TimedEvent* const first_event = valid.data();
  auto step = [&](const spec::TimedEvent* first, const spec::TimedEvent* last) {
    if (!record.recognizer) {
      monitor.observe_batch(first, last);
      for (const spec::TimedEvent* ev = first; ev != last; ++ev) {
        alphabet.record(ev->name);
      }
      return;
    }
    for (const spec::TimedEvent* ev = first; ev != last; ++ev) {
      monitor.observe(ev->name, ev->time);
      alphabet.record(ev->name);
      if (ev != first_event && !moves.test(ev->name)) continue;
      if (vm != nullptr) {
        record.recognizer->sample(*vm);
      } else {
        record.recognizer->sample(*drct);
      }
    }
  };
  if (ladder != nullptr) {
    ladder->record(monitor, valid, stride, step);
  } else {
    step(valid.data(), valid.data() + valid.size());
  }
  monitor.finish(valid.empty() ? sim::Time::zero() : valid.back().time);
  record.violated = monitor.verdict() == mon::Verdict::Violated;
  record.stats = monitor.stats();
  return record;
}

}  // namespace loom::abv
