#include "psl/clause_monitor.hpp"

#include <stdexcept>

#include "mon/snapshot.hpp"
#include "support/diagnostics.hpp"

namespace loom::psl {
namespace {
// Format tag (see mon/antecedent_monitor.cpp): kind-checks restore().
constexpr std::uint32_t kSnapshotKind = 0x434C4155;  // "CLAU"
}  // namespace

ClauseMonitor::ClauseMonitor(Encoding encoding)
    : ClauseMonitor(std::make_shared<const Encoding>(std::move(encoding))) {}

ClauseMonitor::ClauseMonitor(std::shared_ptr<const Encoding> encoding)
    : encoding_(std::move(encoding)),
      lexer_(encoding_->vocab, stats_),
      armed_(encoding_->clauses.size(), false) {
  for (std::size_t c = 0; c < encoding_->clauses.size(); ++c) {
    armed_[c] = encoding_->clauses[c].initially_armed;
  }
  range_seen_.resize(encoding_->fragments.size());
  for (std::size_t f = 0; f < encoding_->fragments.size(); ++f) {
    range_seen_[f].assign(encoding_->fragments[f].per_range.size(), false);
  }
}

mon::Violation& ClauseMonitor::hold_violation() {
  if (!violation_) {
    violation_.emplace();
    violation_->detail.swap(spare_detail_);
  }
  return *violation_;
}

void ClauseMonitor::drop_violation() {
  if (!violation_) return;
  spare_detail_.swap(violation_->detail);
  violation_.reset();
}

void ClauseMonitor::violate(std::size_t ordinal, sim::Time time,
                            spec::Name name, spec::Reason reason) {
  verdict_ = mon::Verdict::Violated;
  mon::Violation& v = hold_violation();
  v.event_ordinal = ordinal;
  v.time = time;
  v.name = name;
  v.reason = reason;
  v.detail.clear();
  render_detail();
}

void ClauseMonitor::render_detail() {
  if (!violation_ || violation_->reason.code != spec::ReasonCode::PslConjunct) {
    return;
  }
  const Clause& clause = encoding_->clauses[violation_->reason.ints[0]];
  std::string& detail = violation_->detail;
  detail = "PSL conjunct violated (";
  detail += to_string(clause.kind);
  detail += "): ";
  append_to(detail, clause.formula, encoding_->vocab.texts());
}

void ClauseMonitor::reset_round() {
  for (auto& f : range_seen_) f.assign(f.size(), false);
  armed_obligation_ = false;
  q_done_ = false;
  in_progress_ = false;
}

void ClauseMonitor::process_token(spec::Name token, spec::Name name,
                                  sim::Time time, std::size_t ordinal) {
  // [14] accounting: the whole clause network re-evaluates on every token.
  stats_.add(encoding_->ops_per_token());

  for (std::size_t c = 0; c < encoding_->clauses.size(); ++c) {
    const Clause& clause = encoding_->clauses[c];
    if (armed_[c] && clause.forbid.test(token)) {
      violate(ordinal, time, name,
              {spec::ReasonCode::PslConjunct,
               {static_cast<std::uint32_t>(c)}});
      return;
    }
    if (clause.arm.test(token)) armed_[c] = true;
    if (clause.disarm.test(token)) armed_[c] = false;
  }

  // Token-granular timing for timed implications.
  if (encoding_->timed) {
    // Locate the token's fragment/range.
    for (std::size_t f = 0; f < encoding_->fragments.size(); ++f) {
      const auto& ft = encoding_->fragments[f];
      for (std::size_t r = 0; r < ft.per_range.size(); ++r) {
        if (ft.per_range[r].test(token)) range_seen_[f][r] = true;
      }
    }
    auto fragment_done = [&](std::size_t f) {
      const auto& ft = encoding_->fragments[f];
      if (ft.join == spec::Join::Conj) {
        for (std::size_t r = 0; r < ft.per_range.size(); ++r) {
          if (!range_seen_[f][r]) return false;
        }
        return true;
      }
      for (std::size_t r = 0; r < ft.per_range.size(); ++r) {
        if (range_seen_[f][r]) return true;
      }
      return false;
    };
    if (!armed_obligation_) {
      bool p_done = true;
      for (std::size_t f = 0; f < encoding_->p_fragment_count; ++f) {
        p_done = p_done && fragment_done(f);
      }
      if (p_done) {
        armed_obligation_ = true;
        t_start_ = time;
      }
    }
    if (armed_obligation_ && !q_done_) {
      bool all_done = true;
      for (std::size_t f = 0; f < encoding_->fragments.size(); ++f) {
        all_done = all_done && fragment_done(f);
      }
      if (all_done) {
        q_done_ = true;
        if (time - t_start_ > encoding_->bound) {
          violate(ordinal, time, name,
                  {spec::ReasonCode::FinishedLateBy,
                   {},
                   {time - t_start_, encoding_->bound}});
          return;
        }
      }
    }
  }

  if (encoding_->reset_tokens.test(token)) {
    if (encoding_->retire_on_reset) {
      verdict_ = mon::Verdict::Holds;
      return;
    }
    ++rounds_;
    reset_round();
  } else {
    in_progress_ = true;
  }
}

void ClauseMonitor::observe(spec::Name name, sim::Time time) {
  const auto before = stats_.begin_event();
  const std::size_t ordinal = ordinal_++;
  if (verdict_ == mon::Verdict::Violated ||
      verdict_ == mon::Verdict::Holds) {
    stats_.end_event(before);
    return;
  }
  stats_.add();  // alphabet filter
  if (!encoding_->vocab.has_source(name)) {
    stats_.end_event(before);
    return;
  }
  if (encoding_->timed && armed_obligation_ && !q_done_ &&
      time > t_start_ + encoding_->bound) {
    violate(ordinal, time, name, {spec::ReasonCode::DeadlineElapsed});
    stats_.end_event(before);
    return;
  }
  token_buffer_.clear();
  const RleLexer::Result r = lexer_.step(name, token_buffer_);
  if (r.error) {
    violate(ordinal, time, name, r.reason);
    stats_.end_event(before);
    return;
  }
  for (const auto token : token_buffer_) {
    process_token(token, name, time, ordinal);
    if (verdict_ == mon::Verdict::Violated ||
        verdict_ == mon::Verdict::Holds) {
      break;
    }
  }
  if (verdict_ != mon::Verdict::Violated && verdict_ != mon::Verdict::Holds) {
    verdict_ = in_progress_ || lexer_.block_open() ? mon::Verdict::Pending
                                                   : mon::Verdict::Monitoring;
  }
  stats_.end_event(before);
}

void ClauseMonitor::finish(sim::Time end_time) {
  if (verdict_ == mon::Verdict::Violated ||
      verdict_ == mon::Verdict::Holds) {
    return;
  }
  token_buffer_.clear();
  bool pending = false;
  (void)lexer_.finish(token_buffer_, pending);
  // The lexer closes the last open block here: its token names that
  // block's source.
  for (const auto token : token_buffer_) {
    process_token(token, encoding_->vocab.source_of(token), end_time,
                  ordinal_);
    if (verdict_ == mon::Verdict::Violated ||
        verdict_ == mon::Verdict::Holds) {
      return;
    }
  }
  if (encoding_->timed && armed_obligation_ && !q_done_ &&
      end_time > t_start_ + encoding_->bound) {
    violate(ordinal_, end_time, spec::kInvalidName,
            {spec::ReasonCode::EndedLate});
    return;
  }
  if (encoding_->timed && q_done_) {
    verdict_ = mon::Verdict::Monitoring;
    return;
  }
  verdict_ = in_progress_ || pending ? mon::Verdict::Pending
                                     : mon::Verdict::Monitoring;
}

void ClauseMonitor::poll(sim::Time now) {
  if (verdict_ == mon::Verdict::Violated) return;
  if (encoding_->timed && armed_obligation_ && !q_done_ &&
      now > t_start_ + encoding_->bound) {
    violate(ordinal_, now, spec::kInvalidName,
            {spec::ReasonCode::DeadlineWatchdog});
  }
}

std::optional<sim::Time> ClauseMonitor::deadline() const {
  if (encoding_->timed && armed_obligation_ && !q_done_) {
    return t_start_ + encoding_->bound;
  }
  return std::nullopt;
}

std::size_t ClauseMonitor::space_bits() const {
  std::size_t bits = encoding_->clause_bits() + lexer_.space_bits() + 2;
  if (encoding_->timed) {
    // PSL cannot express the real-time bound: like the paper's §5(ii)
    // construction, the ViaPSL timed monitor carries the same two sc_time
    // variables plus armed/q_done flags and per-range completion bits.
    bits += 2 * 64 + 2;
    for (const auto& f : encoding_->fragments) bits += f.per_range.size();
  }
  return bits;
}

void ClauseMonitor::reset() {
  for (std::size_t c = 0; c < encoding_->clauses.size(); ++c) {
    armed_[c] = encoding_->clauses[c].initially_armed;
  }
  lexer_.reset();
  reset_round();
  verdict_ = mon::Verdict::Monitoring;
  drop_violation();
  rounds_ = 0;
  ordinal_ = 0;
  stats_.reset();
}

void ClauseMonitor::snapshot(mon::Snapshot& out) const {
  out.clear();
  out.put_u64(mon::snapshot_tag(kSnapshotKind));
  stats_.snapshot(out);
  lexer_.snapshot(out);
  out.put_bits(armed_);
  out.put_u64(static_cast<std::uint64_t>(verdict_));
  mon::snapshot_violation(out, violation_);
  out.put_bool(in_progress_);
  out.put_u64(rounds_);
  out.put_u64(ordinal_);
  out.put_u64(range_seen_.size());
  for (const auto& f : range_seen_) out.put_bits(f);
  out.put_bool(armed_obligation_);
  out.put_bool(q_done_);
  out.put_time(t_start_);
}

void ClauseMonitor::restore(const mon::Snapshot& in) {
  mon::SnapshotReader r(in);
  mon::check_snapshot_tag(r.u64(), kSnapshotKind, "ClauseMonitor::restore");
  stats_.restore(r);
  lexer_.restore(r);
  r.bits_into(armed_);
  verdict_ = static_cast<mon::Verdict>(r.u64());
  mon::restore_violation(r, violation_);
  render_detail();
  in_progress_ = r.boolean();
  rounds_ = r.u64();
  ordinal_ = static_cast<std::size_t>(r.u64());
  const std::size_t fragments = static_cast<std::size_t>(r.u64());
  if (fragments != range_seen_.size()) {
    throw std::logic_error(
        "ClauseMonitor::restore: snapshot of a different clause set");
  }
  for (auto& f : range_seen_) r.bits_into(f);
  armed_obligation_ = r.boolean();
  q_done_ = r.boolean();
  t_start_ = r.time();
  LOOM_DASSERT(r.exhausted());  // format drift: snapshot wrote more fields
}

void ClauseMonitor::fork_from(const mon::Monitor& live) {
  constexpr const char* kWho = "ClauseMonitor::fork_from";
  const auto& src = mon::fork_source<ClauseMonitor>(live, kWho);
  if (src.encoding_ != encoding_) [[unlikely]] {
    mon::reject_fork(kWho, "an instance of another encoding");
  }
  // Same encoding, so every vector already has its width: the assignments
  // copy in place, and the violation's detail text comes along rendered,
  // into the buffer this instance already holds.
  stats_ = src.stats_;
  lexer_.copy_state(src.lexer_);
  armed_ = src.armed_;
  verdict_ = src.verdict_;
  if (src.violation_) {
    hold_violation() = *src.violation_;
  } else {
    drop_violation();
  }
  in_progress_ = src.in_progress_;
  rounds_ = src.rounds_;
  ordinal_ = src.ordinal_;
  range_seen_ = src.range_seen_;
  armed_obligation_ = src.armed_obligation_;
  q_done_ = src.q_done_;
  t_start_ = src.t_start_;
}

}  // namespace loom::psl
