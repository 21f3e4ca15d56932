#include "spec/reference.hpp"

#include <algorithm>
#include <cassert>

#include "spec/attributes.hpp"

namespace loom::spec {
namespace {

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// Walks one "round" of a flattened chain (P for antecedents, P++Q for
/// timed implications) using block-greedy matching over the projected trace.
class RoundWalker {
 public:
  RoundWalker() = default;
  explicit RoundWalker(const OrderingPlan& plan) { bind(plan); }

  /// (Re)attaches the walker to a plan and restores the initial state,
  /// reusing the buffers' capacity — the pooled-walker entry point.
  void bind(const OrderingPlan& plan) {
    plan_ = &plan;
    counts_.resize(plan.alphabet.capacity());
    reset();
  }

  void reset() {
    k_ = 0;
    current_ = kInvalidName;
    closed_.clear();
    consumed_ = false;
    frag_min_complete_ = false;
    std::fill(counts_.begin(), counts_.end(), 0);
  }

  enum class Step { Consumed, RoundCompleted, Error };

  /// Processes one projected event.  On Error, `reason()` explains why.
  Step step(Name name, sim::Time time) {
    const FragmentPlan& f = plan_->fragments[k_];
    if (f.alphabet.test(name)) {
      consumed_ = true;
      const RangePlan& r = range_of(f, name);
      if (name == current_) {
        if (++counts_[name] > r.hi) {
          return fail({ReasonCode::RunOverHi, {r.hi}});
        }
      } else {
        if (current_ != kInvalidName) {
          const RangePlan& cur = range_of(f, current_);
          if (counts_[current_] < cur.lo) {
            return fail({ReasonCode::BlockBelowLo,
                         {counts_[current_], cur.lo}});
          }
          closed_.set(current_);
        }
        if (closed_.test(name)) {
          return fail({ReasonCode::BlockReopened});
        }
        current_ = name;
        counts_[name] = 1;
      }
      if (!frag_min_complete_ && fragment_min_complete(f)) {
        frag_min_complete_ = true;
        frag_min_time_ = time;
      }
      return Step::Consumed;
    }
    if (f.accept.test(name)) {
      if (current_ != kInvalidName) {
        const RangePlan& cur = range_of(f, current_);
        if (counts_[current_] < cur.lo) {
          return fail({ReasonCode::StopBlockBelowLo,
                       {counts_[current_], cur.lo}});
        }
        closed_.set(current_);
      }
      const std::size_t done = closed_.count();
      const bool complete = f.join == Join::Conj
                                ? done == f.ranges.size()
                                : done >= 1;
      if (!complete) {
        return fail({f.join == Join::Conj ? ReasonCode::ConjIncomplete
                                          : ReasonCode::DisjIncomplete});
      }
      ++k_;
      current_ = kInvalidName;
      closed_.clear();
      frag_min_complete_ = false;
      for (const auto& rp : f.ranges) counts_[rp.name] = 0;
      if (k_ == plan_->fragments.size()) return Step::RoundCompleted;
      return step(name, time);  // same event opens the next fragment
    }
    // Out-of-place name: classify for the diagnostic.
    if (plan_->terminal.test(name)) {
      return fail({ReasonCode::EarlyTrigger});
    }
    for (std::size_t j = 0; j < plan_->fragments.size(); ++j) {
      if (plan_->fragments[j].alphabet.test(name)) {
        return fail({j < k_ ? ReasonCode::CompletedFragment
                            : ReasonCode::LaterFragment});
      }
    }
    return fail({ReasonCode::OutsideAlphabet});  // unreachable
  }

  /// Checkpoint support for the oracle ladder.  Only the block counters of
  /// the plan's ranges are stored (counts_ is zero everywhere else), and
  /// closed_ is not stored at all: within the active fragment the closed
  /// blocks are exactly the opened ones other than the current block, and
  /// every other fragment's blocks are zero.
  void save(RefRung& rung, std::uint32_t* counts) const {
    rung.fragment = static_cast<std::uint32_t>(k_);
    rung.current = current_;
    rung.consumed = consumed_;
    rung.frag_min_complete = frag_min_complete_;
    rung.frag_min_time = frag_min_time_;
    for (const auto& f : plan_->fragments) {
      for (const auto& r : f.ranges) *counts++ = counts_[r.name];
    }
  }

  /// Restores a save()d state over a freshly bound walker.
  void load(const RefRung& rung, const std::uint32_t* counts) {
    k_ = rung.fragment;
    current_ = rung.current;
    consumed_ = rung.consumed;
    frag_min_complete_ = rung.frag_min_complete;
    frag_min_time_ = rung.frag_min_time;
    for (const auto& f : plan_->fragments) {
      for (const auto& r : f.ranges) counts_[r.name] = *counts++;
    }
    for (const auto& r : plan_->fragments[k_].ranges) {
      if (counts_[r.name] > 0 && r.name != current_) closed_.set(r.name);
    }
  }

  /// Whether every register but the fragment's minimum time equals a
  /// save()d state (closed_ follows from the counters, as in load()).
  bool matches(const RefRung& rung, const std::uint32_t* counts) const {
    if (k_ != rung.fragment || current_ != rung.current ||
        consumed_ != rung.consumed ||
        frag_min_complete_ != rung.frag_min_complete) {
      return false;
    }
    for (const auto& f : plan_->fragments) {
      for (const auto& r : f.ranges) {
        if (counts_[r.name] != *counts++) return false;
      }
    }
    return true;
  }

  std::size_t fragment_index() const { return k_; }
  bool consumed_anything() const { return consumed_; }
  bool fragment_min_complete_flag() const { return frag_min_complete_; }
  sim::Time fragment_min_time() const { return frag_min_time_; }
  const Reason& reason() const { return reason_; }

 private:
  static const RangePlan& range_of(const FragmentPlan& f, Name name) {
    for (const auto& r : f.ranges) {
      if (r.name == name) return r;
    }
    assert(false && "name not in fragment");
    return f.ranges.front();
  }

  bool fragment_min_complete(const FragmentPlan& f) const {
    if (f.join == Join::Conj) {
      for (const auto& r : f.ranges) {
        if (counts_[r.name] < r.lo) return false;
      }
      return true;
    }
    for (const auto& r : f.ranges) {
      if (counts_[r.name] >= r.lo) return true;
    }
    return false;
  }

  Step fail(Reason why) {
    reason_ = why;
    return Step::Error;
  }

  const OrderingPlan* plan_ = nullptr;
  std::size_t k_ = 0;
  Name current_ = kInvalidName;
  NameSet closed_;
  std::vector<std::uint32_t> counts_;
  bool consumed_ = false;
  bool frag_min_complete_ = false;
  sim::Time frag_min_time_;
  Reason reason_;
};

// One walker per thread, rebound per check: the checks are not reentrant
// and every bind() rebuilds the full state from the plan, so reuse is
// invisible to results — it only drops the per-call buffer allocations
// that dominated the campaign engine's per-mutant oracle checks.
RoundWalker& pooled_walker(const OrderingPlan& plan) {
  thread_local RoundWalker walker;
  walker.bind(plan);
  return walker;
}

// A signed time shift τ = to − from, compared exactly (no saturation or
// clamping): the distance from a recorded trace's end time to a mutant's.
struct Shift {
  sim::Time to, from;

  /// Whether `live` == `recorded` + τ.
  bool maps(sim::Time recorded, sim::Time live) const {
    return to >= from ? live >= recorded && live - recorded == to - from
                      : recorded >= live && recorded - live == from - to;
  }
};

// The one reference walk behind every entry point: a round walker plus the
// timed implication's obligation registers.  reference_check runs it from
// the initial state over the whole trace, resume_reference_check from a
// ladder rung over the suffix until it rejoins a later rung, and
// record_reference_ladder over the whole
// trace in stride-sized slices, saving the state between slices.
class ReferenceWalk {
 public:
  /// `timed` is null for an antecedent requirement.
  ReferenceWalk(const OrderingPlan& plan, bool repeated,
                const TimedImplication* timed)
      : plan_(plan),
        walker_(pooled_walker(plan)),
        repeated_(repeated),
        timed_(timed) {}

  /// Steps events [begin, end) of `trace`, piece by piece; true once the
  /// verdict is decided (then result() holds it and the rest of the trace
  /// cannot change it).
  bool advance(const TraceView& trace, std::size_t begin, std::size_t end) {
    std::size_t base = 0;  // index of the piece's first event
    for (std::size_t k = 0; k < trace.count && base < end; ++k) {
      const TracePiece& piece = trace.pieces[k];
      const std::size_t from = std::max(begin, base);
      const std::size_t to = std::min(end, base + piece.size);
      if (from < to && (timed_ != nullptr
                            ? advance_timed(piece, base, from, to)
                            : advance_antecedent(piece, base, from, to))) {
        return true;
      }
      base += piece.size;
    }
    return false;
  }

  /// The verdict of a walk that reached the end of a `size`-event trace
  /// undecided.
  RefResult finish(std::size_t size, sim::Time end_time) const {
    if (timed_ == nullptr) {
      return {walker_.consumed_anything() ? RefVerdict::Pending
                                          : RefVerdict::Accepted,
              kNoIndex, {}};
    }
    if (armed_ && !q_done_ && end_time > t_start_ + timed_->bound) {
      return {RefVerdict::Rejected, size == 0 ? kNoIndex : size - 1,
              {ReasonCode::EndedLate}};
    }
    if (!walker_.consumed_anything()) {
      return {RefVerdict::Accepted, kNoIndex, {}};
    }
    // Mid-round at end of trace: if the final fragment already reached its
    // minimum within the deadline, the obligation is met (earliest-match).
    if (q_done_) return {RefVerdict::Accepted, kNoIndex, {}};
    return {RefVerdict::Pending, kNoIndex, {}};
  }

  /// Walks the whole of trace[begin, end) and returns its verdict.
  RefResult run(const TraceView& trace, std::size_t begin,
                sim::Time end_time) {
    if (advance(trace, begin, trace.size)) return result_;
    return finish(trace.size, end_time);
  }

  void save(RefRung& rung, std::uint32_t* counts) const {
    walker_.save(rung, counts);
    rung.armed = armed_;
    rung.q_done = q_done_;
    rung.t_start = t_start_;
    rung.decided = false;
  }

  void load(const RefRung& rung, const std::uint32_t* counts) {
    walker_.load(rung, counts);
    armed_ = rung.armed;
    q_done_ = rung.q_done;
    t_start_ = rung.t_start;
  }

  /// Whether the live state is a save()d one with every time register
  /// later by `shift`: then a suffix that is the recorded one re-timed by
  /// the same shift walks to the same verdict.  Every rule compares time
  /// differences, and a saturating deadline t_start + bound compares
  /// against any representable time exactly as the true sum would, so the
  /// shift cannot move a verdict.  A register is compared only while it is
  /// live (frag_min_time once the fragment is min-complete, t_start once
  /// armed), and an antecedent's walk reads no time at all.
  bool rejoins(const RefRung& rung, const std::uint32_t* counts,
               const Shift& shift) const {
    if (!walker_.matches(rung, counts)) return false;
    if (timed_ == nullptr) return true;
    if (armed_ != rung.armed || q_done_ != rung.q_done) return false;
    if (rung.frag_min_complete &&
        !shift.maps(rung.frag_min_time, walker_.fragment_min_time())) {
      return false;
    }
    return !rung.armed || shift.maps(rung.t_start, t_start_);
  }

  RefResult& result() { return result_; }
  /// One past the index of the event that decided the walk.
  std::size_t stop() const { return stop_; }

 private:
  // Decides at event `at`, which is the error index of a rejection.
  bool decide(RefVerdict verdict, std::size_t at, Reason reason = {}) {
    result_ = {verdict, verdict == RefVerdict::Rejected ? at : kNoIndex,
               reason};
    stop_ = at + 1;
    return true;
  }

  // Both steppers walk the trace indices [begin, end) that lie inside
  // `piece`, whose first event has index `base`.
  bool advance_antecedent(const TracePiece& piece, std::size_t base,
                          std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto& ev = piece.data[i - base];
      if (!plan_.alphabet.test(ev.name)) continue;  // projection
      switch (walker_.step(ev.name, ev.time + piece.shift)) {
        case RoundWalker::Step::Consumed:
          break;
        case RoundWalker::Step::RoundCompleted:
          if (!repeated_) return decide(RefVerdict::Accepted, i);
          walker_.reset();
          break;
        case RoundWalker::Step::Error:
          return decide(RefVerdict::Rejected, i, walker_.reason());
      }
    }
    return false;
  }

  // Arms the obligation once P is min-complete and checks the deadline
  // once Q is; true when that check failed (result() is set).
  bool update_timing(sim::Time now, std::size_t index) {
    const std::size_t p_last = plan_.p_boundary - 1;
    const std::size_t q_last = plan_.fragments.size() - 1;
    if (!armed_ && (walker_.fragment_index() > p_last ||
                    (walker_.fragment_index() == p_last &&
                     walker_.fragment_min_complete_flag()))) {
      armed_ = true;
      t_start_ = walker_.fragment_index() == p_last
                     ? walker_.fragment_min_time()
                     : now;
    }
    if (armed_ && !q_done_ && walker_.fragment_index() == q_last &&
        walker_.fragment_min_complete_flag()) {
      q_done_ = true;
      const sim::Time t_stop = walker_.fragment_min_time();
      if (t_stop - t_start_ > timed_->bound) {
        return decide(RefVerdict::Rejected, index,
                      {ReasonCode::FinishedLate});
      }
    }
    return false;
  }

  bool advance_timed(const TracePiece& piece, std::size_t base,
                     std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const Name name = piece.data[i - base].name;
      if (!plan_.alphabet.test(name)) continue;
      const sim::Time time = piece.data[i - base].time + piece.shift;
      if (armed_ && !q_done_ && time > t_start_ + timed_->bound) {
        return decide(RefVerdict::Rejected, i, {ReasonCode::DeadlineElapsed});
      }
      switch (walker_.step(name, time)) {
        case RoundWalker::Step::Consumed:
          if (update_timing(time, i)) return true;
          break;
        case RoundWalker::Step::RoundCompleted:
          // The completing event restarts the chain at fragment 0.
          armed_ = false;
          q_done_ = false;
          walker_.reset();
          if (walker_.step(name, time) == RoundWalker::Step::Error) {
            return decide(RefVerdict::Rejected, i, walker_.reason());
          }
          if (update_timing(time, i)) return true;
          break;
        case RoundWalker::Step::Error:
          return decide(RefVerdict::Rejected, i, walker_.reason());
      }
    }
    return false;
  }

  const OrderingPlan& plan_;
  RoundWalker& walker_;
  bool repeated_ = false;
  const TimedImplication* timed_ = nullptr;
  bool armed_ = false;
  bool q_done_ = false;
  sim::Time t_start_;
  RefResult result_;
  std::size_t stop_ = 0;
};

ReferenceWalk walk_of(const Property& p, const OrderingPlan& plan) {
  if (p.is_antecedent()) {
    return ReferenceWalk(plan, p.antecedent().repeated, nullptr);
  }
  return ReferenceWalk(plan, false, &p.timed());
}

std::size_t range_count(const OrderingPlan& plan) {
  std::size_t n = 0;
  for (const auto& f : plan.fragments) n += f.ranges.size();
  return n;
}

}  // namespace

void materialize(const TraceView& view, Trace& out) {
  out.clear();
  out.reserve(view.size);
  for (std::size_t k = 0; k < view.count; ++k) {
    const TracePiece& piece = view.pieces[k];
    if (piece.shift.is_zero()) {
      out.insert(out.end(), piece.data, piece.data + piece.size);
      continue;
    }
    for (std::size_t i = 0; i < piece.size; ++i) {
      out.push_back({piece.data[i].name, piece.data[i].time + piece.shift});
    }
  }
}

const char* to_string(RefVerdict v) {
  switch (v) {
    case RefVerdict::Accepted: return "accepted";
    case RefVerdict::Pending: return "pending";
    case RefVerdict::Rejected: return "rejected";
  }
  return "?";
}

RefResult reference_check(const Antecedent& a, const Trace& trace) {
  return reference_check(a, plan_antecedent(a), trace);
}

RefResult reference_check(const Antecedent& a, const OrderingPlan& plan,
                          const Trace& trace) {
  return ReferenceWalk(plan, a.repeated, nullptr)
      .run(TraceView::of(trace), 0, sim::Time::zero());
}

RefResult reference_check(const TimedImplication& t, const Trace& trace,
                          sim::Time end_time) {
  return reference_check(t, plan_timed(t), trace, end_time);
}

RefResult reference_check(const TimedImplication& t, const OrderingPlan& plan,
                          const Trace& trace, sim::Time end_time) {
  return ReferenceWalk(plan, false, &t).run(TraceView::of(trace), 0,
                                            end_time);
}

RefResult reference_check(const Property& p, const Trace& trace,
                          sim::Time end_time) {
  if (p.is_antecedent()) return reference_check(p.antecedent(), trace);
  return reference_check(p.timed(), trace, end_time);
}

RefResult reference_check(const Property& p, const OrderingPlan& plan,
                          const Trace& trace, sim::Time end_time) {
  return reference_check(p, plan, TraceView::of(trace), end_time);
}

RefResult reference_check(const Property& p, const OrderingPlan& plan,
                          const TraceView& view, sim::Time end_time) {
  return walk_of(p, plan).run(view, 0, end_time);
}

RefLadder record_reference_ladder(const Property& p, const OrderingPlan& plan,
                                  const Trace& trace, sim::Time end_time,
                                  std::size_t stride) {
  RefLadder ladder;
  record_reference_ladder_into(p, plan, trace, end_time, stride, ladder);
  return ladder;
}

void record_reference_ladder_into(const Property& p, const OrderingPlan& plan,
                                  const Trace& trace, sim::Time end_time,
                                  std::size_t stride, RefLadder& ladder) {
  assert(stride > 0);
  ladder.stride = stride;
  ladder.ranges = range_count(plan);
  ladder.size = trace.size();
  ladder.end_time = end_time;
  const std::size_t rungs = trace.size() / stride;
  // assign, not resize: every rung starts undecided, whatever an earlier
  // recording left in the buffer.
  ladder.rungs.assign(rungs, RefRung{});
  ladder.counts.resize(rungs * ladder.ranges);
  const TraceView view = TraceView::of(trace);
  ReferenceWalk walk = walk_of(p, plan);
  for (std::size_t k = 0; k < rungs; ++k) {
    if (walk.advance(view, k * stride, (k + 1) * stride)) {
      // Decided inside rung k's prefix: this rung and every later one
      // resume straight to the recorded verdict.
      for (; k < rungs; ++k) ladder.rungs[k].decided = true;
      ladder.full = walk.result();
      return;
    }
    walk.save(ladder.rungs[k], ladder.counts.data() + k * ladder.ranges);
  }
  ladder.full = walk.run(view, rungs * stride, end_time);
}

RefResult resume_reference_check(const Property& p, const OrderingPlan& plan,
                                 const RefLadder& ladder, std::size_t floor,
                                 const Trace& trace, sim::Time end_time,
                                 std::size_t aligned, std::size_t* walked) {
  return resume_reference_check(p, plan, ladder, floor, TraceView::of(trace),
                                end_time, aligned, walked);
}

RefResult resume_reference_check(const Property& p, const OrderingPlan& plan,
                                 const RefLadder& ladder, std::size_t floor,
                                 const TraceView& trace, sim::Time end_time,
                                 std::size_t aligned, std::size_t* walked) {
  assert(floor <= ladder.rungs.size());
  const std::size_t begin = floor * ladder.stride;
  assert(begin <= trace.size);
  if (walked != nullptr) *walked = 0;
  if (floor > 0 && ladder.rungs[floor - 1].decided) return ladder.full;
  ReferenceWalk walk = walk_of(p, plan);
  if (floor > 0) {
    walk.load(ladder.rungs[floor - 1],
              ladder.counts.data() + (floor - 1) * ladder.ranges);
  }
  std::size_t at = begin;
  const Shift shift{end_time, ladder.end_time};
  if (aligned <= trace.size) {
    // Rung k's cut (k+1)·stride of the recorded trace sits at mutant index
    // (k+1)·stride + δ, δ = trace.size − ladder.size (modular size_t
    // arithmetic: every index formed here is non-negative).  Try every cut
    // at or past both `aligned` and the resume point, up to the first
    // decided rung.
    const std::size_t from = std::max(aligned, begin);
    const std::size_t min_cut =
        from + ladder.size > trace.size ? from + ladder.size - trace.size
                                        : 0;
    const std::size_t delta = trace.size - ladder.size;
    for (std::size_t k = min_cut == 0 ? 0 : (min_cut - 1) / ladder.stride;
         k < ladder.rungs.size() && !ladder.rungs[k].decided; ++k) {
      const std::size_t next = (k + 1) * ladder.stride + delta;
      if (walk.advance(trace, at, next)) {
        if (walked != nullptr) *walked = walk.stop() - begin;
        return walk.result();
      }
      at = next;
      if (walk.rejoins(ladder.rungs[k],
                       ladder.counts.data() + k * ladder.ranges, shift)) {
        if (walked != nullptr) *walked = at - begin;
        RefResult rejoined = ladder.full;
        if (rejoined.error_index != kNoIndex) rejoined.error_index += delta;
        return rejoined;
      }
    }
  }
  const bool decided = walk.advance(trace, at, trace.size);
  if (walked != nullptr) {
    *walked = (decided ? walk.stop() : trace.size) - begin;
  }
  return decided ? walk.result() : walk.finish(trace.size, end_time);
}

}  // namespace loom::spec
