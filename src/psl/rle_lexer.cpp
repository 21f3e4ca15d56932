#include "psl/rle_lexer.hpp"

#include "mon/snapshot.hpp"

namespace loom::psl {

void RleLexer::snapshot(mon::Snapshot& out) const {
  out.put_u64(current_);
  out.put_u64(count_);
  out.put_bool(emitted_);
}

void RleLexer::restore(mon::SnapshotReader& in) {
  current_ = static_cast<spec::Name>(in.u64());
  count_ = static_cast<std::uint32_t>(in.u64());
  emitted_ = in.boolean();
}

RleLexer::RleLexer(const TokenVocab& vocab, mon::MonitorStats& stats)
    : vocab_(&vocab), stats_(&stats) {}

void RleLexer::reset() {
  current_ = spec::kInvalidName;
  count_ = 0;
  emitted_ = false;
}

RleLexer::Result RleLexer::step(spec::Name source,
                                std::vector<spec::Name>& out) {
  stats_->add(2);  // current-name comparison + counter update
  if (source == current_) {
    const SourceRange& sr = vocab_->source_info(source);
    ++count_;
    stats_->add();  // upper-bound comparison
    if (count_ > sr.hi) {
      return {true, {spec::ReasonCode::LexerOverHi, {source, sr.hi}}};
    }
    if (count_ == sr.hi && !emitted_) {
      stats_->add();
      out.push_back(vocab_->token_for(source, count_));
      emitted_ = true;
    }
    return {};
  }
  // Boundary: close the previous block first.
  if (current_ != spec::kInvalidName && !emitted_) {
    const SourceRange& prev = vocab_->source_info(current_);
    stats_->add();  // lower-bound comparison
    if (count_ < prev.lo) {
      return {true,
              {spec::ReasonCode::LexerBelowLo, {current_, count_, prev.lo}}};
    }
    out.push_back(vocab_->token_for(current_, count_));
  }
  const SourceRange& sr = vocab_->source_info(source);
  current_ = source;
  count_ = 1;
  emitted_ = false;
  stats_->add();
  if (sr.hi == 1) {
    out.push_back(sr.first_token);
    emitted_ = true;
  }
  return {};
}

RleLexer::Result RleLexer::finish(std::vector<spec::Name>& out,
                                  bool& pending) {
  pending = false;
  if (current_ == spec::kInvalidName || emitted_) return {};
  const SourceRange& sr = vocab_->source_info(current_);
  if (count_ < sr.lo) {
    pending = true;  // unfinished block: weakly acceptable
    return {};
  }
  out.push_back(vocab_->token_for(current_, count_));
  emitted_ = true;
  return {};
}

std::size_t RleLexer::space_bits() const {
  std::uint32_t max_hi = 1;
  for (const auto& sr : vocab_->sources()) max_hi = std::max(max_hi, sr.hi);
  return mon::bits_for_value(max_hi) +
         mon::bits_for_value(vocab_->sources().size()) + 1;
}

}  // namespace loom::psl
