//! The monitor VM: interprets a mon::VmProgram (bytecode.hpp) over monitor
//! state held in a flat struct-of-arrays frame.
//!
//! Two execution shapes share one interpreter core:
//!   - VmMonitor: the mon::Monitor implementation behind Backend::Vm — one
//!     frame, the drop-in peer of the Drct/ViaPSL monitors in campaigns,
//!     CLIs and diff grids;
//!   - VmLaneBatch: L frames over one shared program laid out lane-major in
//!     contiguous arrays, advanced block-lockstep — the shape a campaign
//!     shard wants for many mutants of the same (seed × property): the
//!     program's route tables stay hot while the per-lane state streams.
//!
//! Bit-identity contract (tests/mon_bytecode_test.cpp): a VmMonitor is
//! indistinguishable from the Drct monitor of the same property — verdicts,
//! violation reports (including the formatted runtime values in the reason
//! strings), the Figure-6 op/event/max-ops accounting and the space bits
//! all match exactly, event for event.  That is what admits Backend::Vm
//! into every byte-for-byte invariant grid unchanged.
//!
//! Ownership: frames own their state; the program is shared immutable.
//! Thread-safety: one VmMonitor / VmLaneBatch belongs to one thread at a
//! time; a VmProgram may be shared across threads freely.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mon/bytecode.hpp"
#include "mon/stats.hpp"
#include "mon/verdict.hpp"

namespace loom::mon {

/// Pointer bundle over one monitor's mutable state, however it is stored
/// (a VmMonitor's own frame or one lane of a VmLaneBatch).  The interpreter
/// only ever touches state through this view, so both shapes execute the
/// same code paths — divergence between them is structurally impossible.
struct VmFrameRef {
  std::uint8_t* range_state;    // [range_total] RangeState values
  std::uint32_t* range_cpt;     // [range_total] occurrence counters
  std::string* range_reason;    // [range_total] sticky error reasons
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

/// Interpreter entry points (shared by VmMonitor and VmLaneBatch; see
/// vm.cpp for the dispatch loop).  Each mirrors the corresponding Drct
/// monitor entry point bit for bit.  The frame is taken by reference — the
/// callers below keep a prebuilt VmFrameRef per frame, so stepping an event
/// never re-materializes the 16-pointer bundle.
void vm_init(const VmProgram& p, const VmFrameRef& f);
void vm_reset(const VmProgram& p, const VmFrameRef& f);
void vm_step_event(const VmProgram& p, const VmFrameRef& f, spec::Name name,
                   sim::Time time);
/// Steps a whole event slice through one frame: identical state, verdict
/// and Figure-6 accounting to calling vm_step_event per event, but the
/// program pointer stays hoisted, the stats flush once per slice, and once
/// the frame retires (retire.if would halt every later event for 0 ops) the
/// rest of the slice is counted in one step — the campaign's batched mutant
/// replay lands here.
void vm_run_batch(const VmProgram& p, const VmFrameRef& f,
                  const spec::TimedEvent* begin, const spec::TimedEvent* end);
void vm_finish(const VmProgram& p, const VmFrameRef& f, sim::Time end_time);
void vm_poll(const VmProgram& p, const VmFrameRef& f, sim::Time now);
/// Serializes / restores one frame's complete mutable state through
/// mon::Snapshot — the same format (tag word, shape guard, field order)
/// whether the frame is a VmMonitor's own or one lane of a VmLaneBatch, so
/// a snapshot written by a solo monitor restores straight into a batch
/// lane.  `who` names the caller in the foreign-format / shape-mismatch
/// diagnostics.
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
/// A rung holds no strings, so vm_save_rung refuses — returns false and
/// leaves `out` unspecified — a frame that carries a violation or any
/// non-empty range error reason; the caller keeps an earlier rung instead.
/// vm_load_rung overwrites every field of the frame: the violation resets
/// and every range reason clears, so loading into a dirty frame (a pooled
/// monitor or batch lane that violated before) is exact without a reset.
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
  std::vector<std::string> range_reason_;
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

/// L monitor frames over one shared program, laid out lane-major in flat
/// arrays (lane l's ranges live at [l * range_total, (l+1) * range_total)).
/// Each lane is semantically an independent VmMonitor — same verdicts, same
/// stats (tests/mon_bytecode_test.cpp locks the equivalence) — but the
/// frames are contiguous and the program tables are shared, so advancing
/// many mutants of one (seed × property) in block-lockstep keeps both in
/// cache.
class VmLaneBatch {
 public:
  VmLaneBatch(std::shared_ptr<const VmProgram> program, std::size_t lanes);
  // frames_ points into the lane-major state arrays (see VmMonitor).
  VmLaneBatch(const VmLaneBatch&) = delete;
  VmLaneBatch& operator=(const VmLaneBatch&) = delete;

  std::size_t lanes() const { return lanes_; }
  const VmProgram& program() const { return *program_; }

  void observe(std::size_t lane, spec::Name name, sim::Time time) {
    vm_step_event(*program_, frames_[lane], name, time);
  }
  void observe_batch(std::size_t lane, const spec::TimedEvent* begin,
                     const spec::TimedEvent* end) {
    vm_run_batch(*program_, frames_[lane], begin, end);
  }
  /// Block-lockstep over per-lane traces (the mutant-replay shape): lanes
  /// advance together in fixed event-index windows, each lane's sub-slice
  /// running through vm_run_batch's hoisted inner loop — lanes whose trace
  /// is exhausted simply sit out the tail.  Equivalent, bit for bit, to
  /// running each lane's trace through its own monitor.
  void run(const std::vector<const spec::Trace*>& traces);
  /// Suffix-replay lockstep: lane l steps only events
  /// [starts[l], traces[l]->size()) of its trace — the checkpointed-mutant
  /// shape, where each lane was restored from its floor rung and owes only
  /// its own suffix.  Lockstep is by suffix position (relative index), so
  /// uneven starts and uneven lengths both just sit out the tail; with all
  /// starts zero and every lane used this is exactly run(traces).  A
  /// partial wave (traces.size() < lanes()) steps only the listed lanes
  /// and leaves the rest untouched.
  void run(const std::vector<const spec::Trace*>& traces,
           const std::vector<std::size_t>& starts);
  void finish(std::size_t lane, sim::Time end_time) {
    vm_finish(*program_, frames_[lane], end_time);
  }
  void poll(std::size_t lane, sim::Time now) {
    vm_poll(*program_, frames_[lane], now);
  }
  void reset(std::size_t lane) { vm_reset(*program_, frames_[lane]); }
  /// Lane-addressed snapshot/restore, format-identical to VmMonitor's:
  /// restoring a VmMonitor-written snapshot (e.g. a checkpoint-ladder rung)
  /// into lane l reproduces that monitor's state bit for bit, other lanes
  /// untouched.
  void snapshot(std::size_t lane, Snapshot& out) const {
    vm_snapshot(*program_, frames_[lane], out);
  }
  void restore(std::size_t lane, const Snapshot& in) {
    vm_restore(*program_, frames_[lane], in, "VmLaneBatch::restore");
  }
  /// Lane-addressed compact rungs, layout-identical to VmMonitor's.
  bool save_rung(std::size_t lane, std::uint64_t* out) const {
    return vm_save_rung(*program_, frames_[lane], out);
  }
  void load_rung(std::size_t lane, const std::uint64_t* in) {
    vm_load_rung(*program_, frames_[lane], in);
  }

  Verdict verdict(std::size_t lane) const { return verdict_[lane]; }
  const std::optional<Violation>& violation(std::size_t lane) const {
    return violation_[lane];
  }
  MonitorStats& stats(std::size_t lane) { return stats_[lane]; }
  std::size_t space_bits() const { return program_->space_bits; }

 private:
  VmFrameRef make_ref(std::size_t lane);

  std::shared_ptr<const VmProgram> program_;
  std::size_t lanes_ = 0;
  // Per-lane row strides, rounded up from range_total / frag_count so every
  // lane's row starts on a cache-line boundary in the flat arrays below —
  // lockstep stepping never has two lanes' hot words sharing a line.  The
  // interpreter only ever touches [0, range_total) / [0, frag_count) of a
  // row through the VmFrameRef, so the padding slack is dead space, not
  // state.
  std::size_t range_stride_ = 0;
  std::size_t frag_stride_ = 0;
  std::vector<std::uint8_t> range_state_;
  std::vector<std::uint32_t> range_cpt_;
  std::vector<std::string> range_reason_;
  std::vector<std::uint8_t> frag_min_complete_;
  std::vector<std::uint8_t> frag_in_progress_;
  std::vector<sim::Time> frag_min_time_;
  std::vector<std::uint32_t> active_;
  std::vector<Verdict> verdict_;
  std::vector<std::optional<Violation>> violation_;
  std::vector<MonitorStats> stats_;
  std::vector<std::uint8_t> armed_;
  std::vector<std::uint8_t> q_done_;
  std::vector<sim::Time> t_start_;
  std::vector<sim::Time> t_stop_;
  std::vector<std::uint64_t> validated_or_rounds_;
  std::vector<std::uint64_t> ordinal_;
  std::vector<VmFrameRef> frames_;  // prebuilt per-lane views (stable)
};

}  // namespace loom::mon
