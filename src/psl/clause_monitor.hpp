// ViaPSL monitor: executes the clause network generated by translate.cpp.
//
// Following the modular construction of Pierre & Ferro [14] that the paper
// benchmarks against, the monitor's per-event work is linear in the size of
// the translated formula: on every token, every clause re-evaluates and is
// charged its formula's node count.  Each clause carries one state bit
// (armed); the lexer adds its counter bits.  The monitor implements the
// same mon::Monitor interface as the Drct monitors, so the ABV checker and
// the benches can drive either side.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "mon/verdict.hpp"
#include "psl/rle_lexer.hpp"
#include "psl/translate.hpp"

namespace loom::psl {

class ClauseMonitor final : public mon::Monitor {
 public:
  explicit ClauseMonitor(Encoding encoding);
  /// Instantiation from a shared, already-translated clause set
  /// (mon::CompiledProperty): the per-instance state is only the armed
  /// bits, the lexer registers and the timed bookkeeping — the encoding is
  /// immutable and may be shared by any number of concurrent instances.
  explicit ClauseMonitor(std::shared_ptr<const Encoding> encoding);

  void observe(spec::Name name, sim::Time time) override;
  void observe_shifted(const spec::TimedEvent* begin,
                       const spec::TimedEvent* end, sim::Time shift) override {
    for (const auto* ev = begin; ev != end; ++ev) {
      observe(ev->name, ev->time + shift);  // devirtualized
    }
  }
  void finish(sim::Time end_time) override;
  void poll(sim::Time now) override;
  std::optional<sim::Time> deadline() const override;

  mon::Verdict verdict() const override { return verdict_; }
  const std::optional<mon::Violation>& violation() const override {
    return violation_;
  }
  mon::MonitorStats& stats() override { return stats_; }
  std::size_t space_bits() const override;
  void reset() override;
  void snapshot(mon::Snapshot& out) const override;
  void restore(const mon::Snapshot& in) override;
  void fork_from(const mon::Monitor& live) override;

  const Encoding& encoding() const { return *encoding_; }
  std::size_t clause_count() const { return encoding_->clauses.size(); }
  std::uint64_t rounds() const { return rounds_; }

 private:
  // Runs one PSL token through the clause network; `name` is the source
  // name a violation reports (the observed event, or at finish() the
  // closed block's).
  void process_token(spec::Name token, spec::Name name, sim::Time time,
                     std::size_t ordinal);
  void violate(std::size_t ordinal, sim::Time time, spec::Name name,
               spec::Reason reason);
  // Renders a conjunct violation's text into Violation::detail through the
  // encoding (the clause kind and its formula over the token names), in
  // place; the snapshot keeps only the clause index, so restore() renders
  // it again.
  void render_detail();
  // The violation slot, engaged, and its release: a dropped report's
  // detail buffer waits in spare_detail_ for the next one.
  mon::Violation& hold_violation();
  void drop_violation();
  void reset_round();

  std::shared_ptr<const Encoding> encoding_;
  mon::MonitorStats stats_;
  RleLexer lexer_;
  std::vector<bool> armed_;
  mon::Verdict verdict_ = mon::Verdict::Monitoring;
  std::optional<mon::Violation> violation_;
  bool in_progress_ = false;
  std::uint64_t rounds_ = 0;
  std::size_t ordinal_ = 0;
  // Scratch, not state (fork_from copies neither): the lexer's tokens,
  // and the buffer a dropped violation's detail leaves behind, which the
  // next violation or fork reuses so a pooled instance renders without
  // touching the heap.
  std::vector<spec::Name> token_buffer_;
  std::string spare_detail_;

  // Timed bookkeeping (token granularity).
  std::vector<std::vector<bool>> range_seen_;  // [fragment][range]
  bool armed_obligation_ = false;
  bool q_done_ = false;
  sim::Time t_start_;
};

}  // namespace loom::psl
