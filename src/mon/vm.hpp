//! The monitor VM: interprets a mon::VmProgram (bytecode.hpp) over monitor
//! state held in a flat struct-of-arrays frame.
//!
//! VmMonitor is the mon::Monitor implementation behind Backend::Vm — one
//! frame, the drop-in peer of the Drct/ViaPSL monitors in campaigns, CLIs
//! and diff grids.  The interpreter lives in vm.cpp and reaches the frame
//! only through a prebuilt VmFrameRef.  A snapshot is the frame in a packed
//! layout (VmMonitor::snapshot): a few words per fragment plus five bytes
//! per range, so the campaign engine forks a mutant's replay from a VM walk
//! as cheaply as it steps one.
//!
//! Bit-identity contract (tests/mon_bytecode_test.cpp): a VmMonitor is
//! indistinguishable from the Drct monitor of the same property — verdicts,
//! violation reports (including the runtime values the reasons carry and
//! their rendered text), the Figure-6 op/event/max-ops accounting and the
//! space bits all match exactly, event for event.  That is what admits
//! Backend::Vm into every byte-for-byte invariant grid unchanged.
//!
//! Ownership: frames own their state; the program is shared immutable.
//! Thread-safety: one VmMonitor belongs to one thread at a time; a
//! VmProgram may be shared across threads freely.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "mon/bytecode.hpp"
#include "mon/stats.hpp"
#include "mon/verdict.hpp"

namespace loom::mon {

/// Pointer bundle over one VmMonitor's mutable state: the interpreter in
/// vm.cpp only ever touches state through this view, which the monitor
/// builds once, so stepping an event never re-materializes it.
struct VmFrameRef {
  std::uint8_t* range_state;    // [range_total] RangeState values
  std::uint32_t* range_cpt;     // [range_total] occurrence counters
  std::uint8_t* frag_min_complete;  // [frag_count]
  std::uint8_t* frag_in_progress;   // [frag_count]
  sim::Time* frag_min_time;         // [frag_count]
  std::uint32_t* active;
  Verdict* verdict;
  std::optional<Violation>* violation;
  MonitorStats* stats;
  std::uint8_t* armed;   // timed: P min-complete, obligation running
  std::uint8_t* q_done;  // timed: Q min-complete within this round
  sim::Time* t_start;
  sim::Time* t_stop;
  std::uint64_t* validated_or_rounds;  // validated triggers / P=>Q rounds
  std::uint64_t* ordinal;              // next event ordinal
};

/// The Monitor implementation behind Backend::Vm.
class VmMonitor final : public Monitor {
 public:
  explicit VmMonitor(std::shared_ptr<const VmProgram> program);
  // The cached frame_ points into the state vectors: copying or moving a
  // VmMonitor would leave it dangling, and nothing needs either (instances
  // live behind unique_ptr or as locals).
  VmMonitor(const VmMonitor&) = delete;
  VmMonitor& operator=(const VmMonitor&) = delete;

  void observe(spec::Name name, sim::Time time) override;
  /// Steps the whole slice with the program hoisted and the stats flushed
  /// once; a frame that retires mid-slice counts the rest in one step.
  void observe_shifted(const spec::TimedEvent* begin,
                       const spec::TimedEvent* end, sim::Time shift) override;
  void finish(sim::Time end_time) override;
  void poll(sim::Time now) override;
  std::optional<sim::Time> deadline() const override;

  Verdict verdict() const override { return verdict_; }
  const std::optional<Violation>& violation() const override {
    return violation_;
  }
  MonitorStats& stats() override { return stats_; }
  std::size_t space_bits() const override { return program_->space_bits; }
  void reset() override;
  /// The frame in its packed layout: the tag word, one shape word, 8
  /// header words (stats ops, events, max-ops; t_start; t_stop;
  /// validated_or_rounds; ordinal; active | verdict << 32 | armed << 40 |
  /// q_done << 48), frag_min_time[frag_count], then the bytes of
  /// range_cpt, range_state, frag_min_complete and frag_in_progress packed
  /// into ceil((5·range_total + 2·frag_count) / 8) zero-padded words — one
  /// Snapshot block — and last the violation (snapshot_violation).
  void snapshot(Snapshot& out) const override;
  /// Overwrites every field, violation included, so restoring into a
  /// dirty frame needs no reset first.
  void restore(const Snapshot& in) override;

  const VmProgram& program() const { return *program_; }
  /// Validated triggers (antecedent) / completed P=>Q rounds (timed).
  std::uint64_t validated_or_rounds() const { return validated_or_rounds_; }
  /// Range r's automaton (flat plan order: fragment-major, range-minor):
  /// its state, numbered like RangeRecognizer::State, and its block
  /// counter — what recognizer-state coverage samples.
  std::uint8_t range_state(std::uint32_t r) const { return range_state_[r]; }
  std::uint32_t range_count(std::uint32_t r) const { return range_cpt_[r]; }

 private:
  VmFrameRef make_ref();

  std::shared_ptr<const VmProgram> program_;
  std::vector<std::uint8_t> range_state_;
  std::vector<std::uint32_t> range_cpt_;
  std::vector<std::uint8_t> frag_min_complete_;
  std::vector<std::uint8_t> frag_in_progress_;
  std::vector<sim::Time> frag_min_time_;
  std::uint32_t active_ = 0;
  Verdict verdict_ = Verdict::Monitoring;
  std::optional<Violation> violation_;
  MonitorStats stats_;
  std::uint8_t armed_ = 0;
  std::uint8_t q_done_ = 0;
  sim::Time t_start_;
  sim::Time t_stop_;
  std::uint64_t validated_or_rounds_ = 0;
  std::uint64_t ordinal_ = 0;
  VmFrameRef frame_;  // prebuilt view over the members above (stable)
};

}  // namespace loom::mon
