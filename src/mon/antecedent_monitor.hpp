// Drct monitor for an antecedent requirement A = (P << i, b).
//
// The trigger i may occur only once P has been recognized; with b=true
// (repeated) each i is a reset point and needs its own P, with b=false a
// single recognition of P validates all later occurrences of i and the
// monitor retires with verdict Holds at the first validated i.
#pragma once

#include <memory>
#include <optional>

#include "mon/ordering_recognizer.hpp"
#include "mon/verdict.hpp"

namespace loom::mon {

class AntecedentMonitor final : public Monitor {
 public:
  explicit AntecedentMonitor(spec::Antecedent property);
  /// Instantiation from a precomputed plan (mon::CompiledProperty): the
  /// plan must describe `property`; no attribute computation runs here.
  AntecedentMonitor(spec::Antecedent property,
                    std::shared_ptr<const spec::OrderingPlan> plan);

  void observe(spec::Name name, sim::Time time) override;
  void observe_shifted(const spec::TimedEvent* begin,
                       const spec::TimedEvent* end, sim::Time shift) override {
    for (const auto* ev = begin; ev != end; ++ev) {
      if (verdict_ == Verdict::Holds || verdict_ == Verdict::Violated) {
        // Retired: observe() would charge each remaining event 0 ops, so
        // count the rest of the slice in one step.
        const auto rest = static_cast<std::uint64_t>(end - ev);
        stats_.events += rest;
        ordinal_ += rest;
        return;
      }
      observe(ev->name, ev->time + shift);  // devirtualized
    }
  }
  void finish(sim::Time end_time) override;

  Verdict verdict() const override { return verdict_; }
  const std::optional<Violation>& violation() const override {
    return violation_;
  }
  MonitorStats& stats() override { return stats_; }
  std::size_t space_bits() const override;
  void reset() override;
  void snapshot(Snapshot& out) const override;
  void restore(const Snapshot& in) override;
  void fork_from(const Monitor& live) override;

  /// Number of trigger occurrences that were validated.
  std::uint64_t validated_triggers() const { return validated_; }

  const spec::Antecedent& property() const { return property_; }
  const spec::OrderingPlan& plan() const { return *plan_; }
  const OrderingRecognizer& recognizer() const { return recognizer_; }

 private:
  spec::Antecedent property_;
  std::shared_ptr<const spec::OrderingPlan> plan_;
  MonitorStats stats_;
  OrderingRecognizer recognizer_;
  Verdict verdict_ = Verdict::Monitoring;
  std::optional<Violation> violation_;
  std::uint64_t validated_ = 0;
  std::size_t ordinal_ = 0;
};

}  // namespace loom::mon
