//! The monitor VM: interprets a mon::VmProgram (bytecode.hpp) over monitor
//! state held in a flat struct-of-arrays frame.
//!
//! VmMonitor is the mon::Monitor implementation behind Backend::Vm — one
//! frame, the drop-in peer of the Drct/ViaPSL monitors in campaigns, CLIs
//! and diff grids.  The interpreter entry points below take the frame as a
//! VmFrameRef, so the compact checkpoint rungs and the snapshot codec work
//! on any frame the same way.
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

/// Pointer bundle over one monitor's mutable state.  The interpreter only
/// ever touches state through this view.
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

/// Interpreter entry points (see vm.cpp for the dispatch loop).  Each
/// mirrors the corresponding Drct monitor entry point bit for bit.  The
/// frame is taken by reference — VmMonitor keeps a prebuilt VmFrameRef, so
/// stepping an event never re-materializes the 15-pointer bundle.
void vm_init(const VmProgram& p, const VmFrameRef& f);
void vm_reset(const VmProgram& p, const VmFrameRef& f);
void vm_step_event(const VmProgram& p, const VmFrameRef& f, spec::Name name,
                   sim::Time time);
/// Steps a whole event slice through one frame: identical state, verdict
/// and Figure-6 accounting to calling vm_step_event per event, but the
/// program pointer stays hoisted, the stats flush once per slice, and once
/// the frame retires (retire.if would halt every later event for 0 ops) the
/// rest of the slice is counted in one step — the campaign's batched mutant
/// replay lands here.  Each event is stepped at its time plus `shift`
/// (saturating): a shifted piece of a mutant's spec::TraceView.
void vm_run_batch(const VmProgram& p, const VmFrameRef& f,
                  const spec::TimedEvent* begin, const spec::TimedEvent* end,
                  sim::Time shift = sim::Time::zero());
void vm_finish(const VmProgram& p, const VmFrameRef& f, sim::Time end_time);
void vm_poll(const VmProgram& p, const VmFrameRef& f, sim::Time now);
/// Serializes / restores one frame's complete mutable state through
/// mon::Snapshot (tag word, shape guard, field order).  `who` names the
/// caller in the foreign-format / shape-mismatch diagnostics.
void vm_snapshot(const VmProgram& p, const VmFrameRef& f, Snapshot& out);
void vm_restore(const VmProgram& p, const VmFrameRef& f, const Snapshot& in,
                const char* who);

/// Compact checkpoint rungs: a frame's state as a fixed-size block of
/// vm_rung_words(p) words, for in-memory checkpoint ladders only (never
/// the wire — mon::Snapshot stays the exchange format).  Layout: 8 header
/// words (stats ops, events, max-ops; t_start; t_stop;
/// validated_or_rounds; ordinal; active | verdict << 32 | armed << 40 |
/// q_done << 48), then frag_min_time[frag_count], then the bytes of
/// range_cpt, range_state, frag_min_complete and frag_in_progress packed
/// into ceil((5·range_total + 2·frag_count) / 8) words.
///
/// A rung holds no violation, so vm_save_rung refuses — returns false and
/// leaves `out` unspecified — a frame that carries a violation or any
/// range in the error state; the caller keeps an earlier rung instead.
/// vm_load_rung overwrites every field of the frame and resets the
/// violation, so loading into a dirty frame (a pooled monitor that violated
/// before) is exact without a reset.
/// A rung is shape-bound like a Snapshot, but carries no guard: load it
/// only into a frame of a program with the same range_total / frag_count.
std::size_t vm_rung_words(const VmProgram& p);
bool vm_save_rung(const VmProgram& p, const VmFrameRef& f,
                  std::uint64_t* out);
void vm_load_rung(const VmProgram& p, const VmFrameRef& f,
                  const std::uint64_t* in);

/// The Monitor implementation behind Backend::Vm.
class VmMonitor final : public Monitor {
 public:
  explicit VmMonitor(std::shared_ptr<const VmProgram> program);
  // The cached frame_ points into the state vectors: copying or moving a
  // VmMonitor would leave it dangling, and nothing needs either (instances
  // live behind unique_ptr or as locals).
  VmMonitor(const VmMonitor&) = delete;
  VmMonitor& operator=(const VmMonitor&) = delete;

  void observe(spec::Name name, sim::Time time) override {
    vm_step_event(*program_, frame_, name, time);
  }
  using Monitor::observe_batch;
  void observe_batch(const spec::TimedEvent* begin,
                     const spec::TimedEvent* end) override {
    vm_run_batch(*program_, frame_, begin, end);
  }
  void observe_shifted(const spec::TimedEvent* begin,
                       const spec::TimedEvent* end, sim::Time shift) override {
    vm_run_batch(*program_, frame_, begin, end, shift);
  }
  void finish(sim::Time end_time) override {
    vm_finish(*program_, frame_, end_time);
  }
  void poll(sim::Time now) override { vm_poll(*program_, frame_, now); }
  std::optional<sim::Time> deadline() const override;

  Verdict verdict() const override { return verdict_; }
  const std::optional<Violation>& violation() const override {
    return violation_;
  }
  MonitorStats& stats() override { return stats_; }
  std::size_t space_bits() const override { return program_->space_bits; }
  void reset() override { vm_reset(*program_, frame_); }
  void snapshot(Snapshot& out) const override;
  void restore(const Snapshot& in) override;
  /// Compact rungs (vm_save_rung / vm_load_rung) over this frame.
  bool save_rung(std::uint64_t* out) const {
    return vm_save_rung(*program_, frame_, out);
  }
  void load_rung(const std::uint64_t* in) {
    vm_load_rung(*program_, frame_, in);
  }

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
