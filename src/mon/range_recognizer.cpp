#include "mon/range_recognizer.hpp"

#include "mon/snapshot.hpp"

namespace loom::mon {

spec::Reason range_reason(spec::ReasonCode code, std::uint32_t count,
                          std::uint32_t lo, std::uint32_t hi) {
  switch (code) {
    case spec::ReasonCode::CountOverHi:
      return {code, {hi}};
    case spec::ReasonCode::BlockBelowLo:
    case spec::ReasonCode::StopBelowLo:
      return {code, {count, lo}};
    default:
      return {code};
  }
}

void RangeRecognizer::snapshot(Snapshot& out) const {
  out.put_u64(static_cast<std::uint64_t>(state_) |
              static_cast<std::uint64_t>(error_) << 8);
  out.put_u64(cpt_);
}

void RangeRecognizer::restore(SnapshotReader& in) {
  const std::uint64_t word = in.u64();
  state_ = static_cast<State>(static_cast<std::uint8_t>(word));
  error_ = static_cast<spec::ReasonCode>(static_cast<std::uint8_t>(word >> 8));
  cpt_ = static_cast<std::uint32_t>(in.u64());
}

const char* to_string(RangeRecognizer::State s) {
  switch (s) {
    case RangeRecognizer::State::Idle: return "s0/idle";
    case RangeRecognizer::State::WaitFirst: return "s1/wait-first";
    case RangeRecognizer::State::WaitFirstSibling: return "s2/wait-sibling";
    case RangeRecognizer::State::Counting: return "s3/counting";
    case RangeRecognizer::State::DoneSibling: return "s4/done-sibling";
    case RangeRecognizer::State::Error: return "s5/error";
  }
  return "?";
}

void RangeRecognizer::start() {
  stats_->add();  // state assignment
  state_ = State::WaitFirst;
  cpt_ = 0;
}

void RangeRecognizer::reset() {
  state_ = State::Idle;
  cpt_ = 0;
  error_ = spec::ReasonCode::None;
}

RangeRecognizer::Out RangeRecognizer::fail(spec::ReasonCode code) {
  stats_->add();
  state_ = State::Error;
  error_ = code;
  return Out::Err;
}

RangeRecognizer::Out RangeRecognizer::step(spec::Name name) {
  // Classification of the event in this recognizer's context.  Each test
  // counts as one operation; tests are evaluated lazily per state.
  const auto is_n = [&] {
    stats_->add();
    return name == plan_->name;
  };
  const auto in_c = [&] {
    stats_->add();
    return plan_->siblings.test(name);
  };
  const auto in_ac = [&] {
    stats_->add();
    return plan_->accept.test(name);
  };

  switch (state_) {
    case State::Idle:
      return Out::None;  // not started; the fragment routes no events here

    case State::WaitFirst:  // s1
      if (is_n()) {
        stats_->add(2);  // state + counter assignment
        state_ = State::Counting;
        cpt_ = 1;
        return Out::None;
      }
      if (in_c()) {
        stats_->add();
        state_ = State::WaitFirstSibling;
        return Out::None;
      }
      if (in_ac()) {
        return fail(spec::ReasonCode::NeverStarted);
      }
      return fail(spec::ReasonCode::OutsideFragment);

    case State::WaitFirstSibling:  // s2
      if (is_n()) {
        stats_->add(2);
        state_ = State::Counting;
        cpt_ = 1;
        return Out::None;
      }
      if (in_c()) return Out::None;
      if (in_ac()) {
        stats_->add();  // join test
        if (plan_->parent_join == spec::Join::Disj) {
          stats_->add();
          state_ = State::Idle;
          return Out::Nok;
        }
        return fail(spec::ReasonCode::ConjUnobserved);
      }
      return fail(spec::ReasonCode::OutsideFragment);

    case State::Counting:  // s3
      if (is_n()) {
        stats_->add();  // bound comparison
        if (cpt_ == plan_->hi) return fail(spec::ReasonCode::CountOverHi);
        stats_->add();
        ++cpt_;
        return Out::None;
      }
      if (in_c()) {
        stats_->add();  // lower-bound comparison
        if (cpt_ >= plan_->lo) {
          stats_->add();
          state_ = State::DoneSibling;
          return Out::None;
        }
        return fail(spec::ReasonCode::BlockBelowLo);
      }
      if (in_ac()) {
        stats_->add();
        if (cpt_ >= plan_->lo) {
          stats_->add();
          state_ = State::Idle;
          return Out::Ok;
        }
        return fail(spec::ReasonCode::StopBelowLo);
      }
      return fail(spec::ReasonCode::OutsideFragment);

    case State::DoneSibling:  // s4
      if (is_n()) return fail(spec::ReasonCode::BlockReopened);
      if (in_c()) return Out::None;
      if (in_ac()) {
        stats_->add();
        state_ = State::Idle;
        return Out::Ok;
      }
      return fail(spec::ReasonCode::OutsideFragment);

    case State::Error:  // s5, absorbing
      return Out::Err;
  }
  return Out::None;
}

}  // namespace loom::mon
