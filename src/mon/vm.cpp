#include "mon/vm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "mon/range_recognizer.hpp"
#include "mon/snapshot.hpp"
#include "support/diagnostics.hpp"

// Error paths stay out of line so the hot automaton stays small enough to
// inline.  They format nothing: a failure is recorded as a spec::Reason
// value (a code plus the counter and bound it prints), and its text is
// rendered only when a caller asks for it.
#if defined(__GNUC__) || defined(__clang__)
#define LOOM_VM_COLD __attribute__((noinline, cold))
#else
#define LOOM_VM_COLD
#endif

namespace loom::mon {
namespace {

// Format tag (see antecedent_monitor.cpp): kind-checks restore().
constexpr std::uint32_t kSnapshotKind = 0x564D4652;  // "VMFR"

// The range automaton's states — values match RangeRecognizer::State so a
// frame dump reads the same as a recognizer dump.
enum class RS : std::uint8_t {
  Idle,
  WaitFirst,
  WaitFirstSibling,
  Counting,
  DoneSibling,
  Error,
};

enum class RangeOut : std::uint8_t { None, Ok, Nok, Err };
enum class FragOut : std::uint8_t { None, Ok, Err };

// The Figure-6 operation count accumulates in a register (`ops`) for the
// duration of one entry point and flushes into MonitorStats once at the
// end — the totals are exactly the per-call add() sequence the Drct
// monitors execute, without a memory round-trip per charge.

void vm_violate(const VmFrameRef& f, std::uint64_t ordinal, sim::Time time,
                spec::Name name, spec::Reason reason) {
  *f.verdict = Verdict::Violated;
  *f.violation =
      Violation{static_cast<std::size_t>(ordinal), time, name, reason};
}

// The erring range of an event's step and the failure it hit.  The range
// keeps its counter (a failure never touches it), so the reason is the
// failure kind plus that counter and the program's bounds — built once,
// when the violation latches.
struct RangeFault {
  std::uint32_t range = 0;
  spec::ReasonCode code = spec::ReasonCode::None;
};

// --- the range automaton (RangeRecognizer::step, compiled) ----------------
// The route byte replaces the lazy is_n / in_c / in_ac membership tests,
// but the Figure-6 accounting must not notice: every charge below equals
// the number of tests the Drct recognizer would have evaluated for this
// (state, class) cell plus its assignment/comparison charges, and the
// failure codes are the recognizer's.

LOOM_VM_COLD RangeOut range_fail(const VmFrameRef& f, std::uint64_t& ops,
                                 std::uint32_t r, spec::ReasonCode code,
                                 RangeFault* fault) {
  ++ops;
  f.range_state[r] = static_cast<std::uint8_t>(RS::Error);
  *fault = {r, code};
  return RangeOut::Err;
}

RangeOut range_step(const VmProgram& p, const VmFrameRef& f,
                    std::uint64_t& ops, std::uint32_t r, std::uint8_t cls,
                    RangeFault* fault) {
  using spec::ReasonCode;
  switch (static_cast<RS>(f.range_state[r])) {
    case RS::Idle:
      return RangeOut::None;  // not started; no events routed here

    case RS::WaitFirst:  // s1
      switch (cls) {
        case kClassN:
          ops += 3;  // is_n + state + counter assignment
          f.range_state[r] = static_cast<std::uint8_t>(RS::Counting);
          f.range_cpt[r] = 1;
          return RangeOut::None;
        case kClassC:
          ops += 3;  // is_n + in_c + state assignment
          f.range_state[r] = static_cast<std::uint8_t>(RS::WaitFirstSibling);
          return RangeOut::None;
        case kClassAc:
          ops += 3;  // is_n + in_c + in_ac
          return range_fail(f, ops, r, ReasonCode::NeverStarted, fault);
        default:
          ops += 3;
          return range_fail(f, ops, r, ReasonCode::OutsideFragment, fault);
      }

    case RS::WaitFirstSibling:  // s2
      switch (cls) {
        case kClassN:
          ops += 3;
          f.range_state[r] = static_cast<std::uint8_t>(RS::Counting);
          f.range_cpt[r] = 1;
          return RangeOut::None;
        case kClassC:
          ops += 2;
          return RangeOut::None;
        case kClassAc:
          ops += 4;  // the three tests + the join test
          if (p.consts_of(r).disj_parent) {
            ++ops;
            f.range_state[r] = static_cast<std::uint8_t>(RS::Idle);
            return RangeOut::Nok;
          }
          return range_fail(f, ops, r, ReasonCode::ConjUnobserved, fault);
        default:
          ops += 3;
          return range_fail(f, ops, r, ReasonCode::OutsideFragment, fault);
      }

    case RS::Counting:  // s3
      switch (cls) {
        case kClassN:
          ops += 2;  // is_n + bound comparison
          if (f.range_cpt[r] == p.consts_of(r).hi) {
            return range_fail(f, ops, r, ReasonCode::CountOverHi, fault);
          }
          ++ops;
          ++f.range_cpt[r];
          return RangeOut::None;
        case kClassC:
          ops += 3;  // is_n + in_c + lower-bound comparison
          if (f.range_cpt[r] >= p.consts_of(r).lo) {
            ++ops;
            f.range_state[r] = static_cast<std::uint8_t>(RS::DoneSibling);
            return RangeOut::None;
          }
          return range_fail(f, ops, r, ReasonCode::BlockBelowLo, fault);
        case kClassAc:
          ops += 4;
          if (f.range_cpt[r] >= p.consts_of(r).lo) {
            ++ops;
            f.range_state[r] = static_cast<std::uint8_t>(RS::Idle);
            return RangeOut::Ok;
          }
          return range_fail(f, ops, r, ReasonCode::StopBelowLo, fault);
        default:
          ops += 3;
          return range_fail(f, ops, r, ReasonCode::OutsideFragment, fault);
      }

    case RS::DoneSibling:  // s4
      switch (cls) {
        case kClassN:
          ++ops;
          return range_fail(f, ops, r, ReasonCode::BlockReopened, fault);
        case kClassC:
          ops += 2;
          return RangeOut::None;
        case kClassAc:
          ops += 4;
          f.range_state[r] = static_cast<std::uint8_t>(RS::Idle);
          return RangeOut::Ok;
        default:
          ops += 3;
          return range_fail(f, ops, r, ReasonCode::OutsideFragment, fault);
      }

    case RS::Error:  // s5, absorbing (no event reaches it: the monitor
                     // latches the violation and retires on the same event)
      return RangeOut::Err;
  }
  return RangeOut::None;
}

// --- fragment stepping (FragmentRecognizer::step, compiled) ---------------

void start_fragment(const VmProgram& p, const VmFrameRef& f,
                    std::uint64_t& ops, std::uint32_t frag) {
  const std::uint32_t first = p.frag_first[frag];
  const std::uint32_t count = p.frag_ranges[frag];
  for (std::uint32_t r = first; r < first + count; ++r) {
    ++ops;  // state assignment (RangeRecognizer::start)
    f.range_state[r] = static_cast<std::uint8_t>(RS::WaitFirst);
    f.range_cpt[r] = 0;
  }
  f.frag_min_complete[frag] = 0;
  f.frag_in_progress[frag] = 0;
}

bool min_reached(const VmProgram& p, const VmFrameRef& f, std::uint32_t r) {
  const RS s = static_cast<RS>(f.range_state[r]);
  return (s == RS::Counting && f.range_cpt[r] >= p.consts_of(r).lo) ||
         s == RS::DoneSibling;
}

FragOut fragment_step(const VmProgram& p, const VmFrameRef& f,
                      std::uint64_t& ops, std::uint32_t frag,
                      spec::Name name, sim::Time time, RangeFault* fault) {
  const std::uint32_t first = p.frag_first[frag];
  const std::uint32_t count = p.frag_ranges[frag];
  const std::uint8_t* route =
      p.route.data() + static_cast<std::size_t>(name) * p.range_total;
  // Synchronous parallel composition: every child sees the event; the
  // first child error aborts the sweep (the remaining children are not
  // stepped), exactly like the recognizer's loop.
  for (std::uint32_t r = first; r < first + count; ++r) {
    if (range_step(p, f, ops, r, route[r], fault) == RangeOut::Err) {
      return FragOut::Err;
    }
  }
  ++ops;  // accept-set test for the aggregate decision
  const std::uint8_t flags =
      p.frag_flags[static_cast<std::size_t>(name) * p.frag_count + frag];
  if (flags & kFlagAccept) return FragOut::Ok;
  ++ops;  // in-fragment test
  if (flags & kFlagAlphabet) {
    f.frag_in_progress[frag] = 1;
    if (!f.frag_min_complete[frag]) {
      ops += count;  // one bound check per child
      bool done;
      if (p.frag_conj[frag]) {
        done = true;
        for (std::uint32_t r = first; r < first + count; ++r) {
          if (!min_reached(p, f, r)) {
            done = false;
            break;
          }
        }
      } else {
        done = false;
        for (std::uint32_t r = first; r < first + count; ++r) {
          if (min_reached(p, f, r)) {
            done = true;
            break;
          }
        }
      }
      if (done) {
        ++ops;
        f.frag_min_complete[frag] = 1;
        f.frag_min_time[frag] = time;
      }
    }
  }
  return FragOut::None;
}

// --- chain helpers (OrderingRecognizer, compiled) -------------------------

void restart_chain(const VmProgram& p, const VmFrameRef& f,
                   std::uint64_t& ops) {
  for (std::uint32_t r = 0; r < p.range_total; ++r) {
    f.range_state[r] = static_cast<std::uint8_t>(RS::Idle);
    f.range_cpt[r] = 0;
  }
  for (std::uint32_t frag = 0; frag < p.frag_count; ++frag) {
    f.frag_min_complete[frag] = 0;
    f.frag_in_progress[frag] = 0;
  }
  *f.active = 0;
  start_fragment(p, f, ops, 0);
}

// OrderingRecognizer::step with the result discarded: only used for the
// re-step of the completing event after a timed chain's reset point, where
// the Drct monitor also ignores the outcome but keeps the side effects.
void chain_step_discarded(const VmProgram& p, const VmFrameRef& f,
                          std::uint64_t& ops, spec::Name name,
                          sim::Time time) {
  RangeFault fault;
  ++ops;  // active-fragment dispatch
  switch (fragment_step(p, f, ops, *f.active, name, time, &fault)) {
    case FragOut::None:
    case FragOut::Err:
      return;
    case FragOut::Ok:
      break;
  }
  if (*f.active + 1 == p.frag_count) return;  // completed again; discarded
  ++*f.active;
  ++ops;
  start_fragment(p, f, ops, *f.active);
  (void)fragment_step(p, f, ops, *f.active, name, time, &fault);
}

// --- timed bookkeeping (TimedImplicationMonitor::update_timing) -----------

LOOM_VM_COLD void violate_deadline(const VmFrameRef& f, std::uint64_t ordinal,
                                   spec::Name name, sim::Time took,
                                   sim::Time bound) {
  vm_violate(f, ordinal, *f.t_stop, name,
             {spec::ReasonCode::FinishedLateBy, {}, {took, bound}});
}

LOOM_VM_COLD void violate_fault(const VmProgram& p, const VmFrameRef& f,
                                std::uint64_t ordinal, sim::Time time,
                                spec::Name name, RangeFault fault) {
  const RangeConst& c = p.consts_of(fault.range);
  vm_violate(f, ordinal, time, name,
             range_reason(fault.code, f.range_cpt[fault.range], c.lo, c.hi));
}

void update_timing(const VmProgram& p, const VmFrameRef& f,
                   std::uint64_t& ops, sim::Time now, std::uint64_t ordinal,
                   spec::Name name) {
  const std::uint32_t p_last = p.p_last;
  const std::uint32_t q_last = p.q_last;
  const std::uint32_t active = *f.active;
  ops += 2;  // the two stage comparisons below
  if (!*f.armed &&
      (active > p_last ||
       (active == p_last && f.frag_min_complete[p_last]))) {
    *f.armed = 1;
    *f.t_start = active == p_last ? f.frag_min_time[p_last] : now;
    ops += 2;
  }
  if (*f.armed && !*f.q_done && active == q_last &&
      f.frag_min_complete[q_last]) {
    *f.q_done = 1;
    *f.t_stop = f.frag_min_time[q_last];
    ops += 3;  // flag + assignment + deadline comparison
    if (*f.t_stop - *f.t_start > p.bound) {
      violate_deadline(f, ordinal, name, *f.t_stop - *f.t_start, p.bound);
    }
  }
}

// The dispatch loop proper, shared by the single-event and batched entry
// points: executes one event from pc 0 and returns the event's Figure-6
// spend (the callers own the events/ops/max-ops bookkeeping).
std::uint64_t step_event_core(const VmProgram& p, const VmFrameRef& f,
                              const Insn* const code, spec::Name name,
                              sim::Time time) {
  std::uint64_t ops = 0;
  const std::uint64_t ordinal = (*f.ordinal)++;
  RangeFault fault;
  std::uint16_t pc = 0;
  for (;;) {
    const Insn in = code[pc];
    switch (in.op) {
      case Op::RetireIfDone:
        if ((in.a >> static_cast<unsigned>(*f.verdict)) & 1) return ops;
        ++pc;
        break;
      case Op::Filter:
        ++ops;  // alphabet filter
        if (name >= p.table_names || !p.filter[name]) return ops;
        ++pc;
        break;
      case Op::DeadlineGuard:
        ++ops;  // deadline pre-check
        if (*f.armed && !*f.q_done && time > *f.t_start + p.bound) {
          vm_violate(f, ordinal, time, name,
                     {spec::ReasonCode::DeadlineElapsed});
          return ops;
        }
        ++pc;
        break;
      case Op::Dispatch:
        ++ops;  // active-fragment dispatch
        pc = p.frag_entry[*f.active];
        break;
      case Op::StepFragment:
        switch (fragment_step(p, f, ops, in.a, name, time, &fault)) {
          case FragOut::Ok:
            pc = in.b;
            break;
          case FragOut::None:
            pc = in.c;
            break;
          case FragOut::Err:
            pc = in.d;
            break;
        }
        break;
      case Op::Advance:
        // The stopping name of the previous fragment is the first event of
        // the new one; the nested step can neither complete nor fail.
        *f.active = in.a;
        ++ops;
        start_fragment(p, f, ops, in.a);
        (void)fragment_step(p, f, ops, in.a, name, time, &fault);
        pc = in.b;
        break;
      case Op::CompleteAntecedent:
        ++*f.validated_or_rounds;
        if (p.repeated) {
          restart_chain(p, f, ops);
          *f.verdict = Verdict::Monitoring;
        } else {
          *f.verdict = Verdict::Holds;
        }
        return ops;
      case Op::CompleteTimed:
        // The reset point: the completing event restarts the chain at F1.
        ++*f.validated_or_rounds;
        *f.armed = 0;
        *f.q_done = 0;
        restart_chain(p, f, ops);
        chain_step_discarded(p, f, ops, name, time);
        update_timing(p, f, ops, time, ordinal, name);
        if (*f.verdict != Verdict::Violated) *f.verdict = Verdict::Pending;
        return ops;
      case Op::UpdateTiming:
        update_timing(p, f, ops, time, ordinal, name);
        ++pc;
        break;
      case Op::NoteProgress:
        if (*f.verdict != Verdict::Violated) {
          *f.verdict = (*f.active > 0 || f.frag_in_progress[0])
                           ? Verdict::Pending
                           : Verdict::Monitoring;
        }
        ++pc;
        break;
      case Op::LatchViolation:
        violate_fault(p, f, ordinal, time, name, fault);
        ++pc;
        break;
      case Op::Halt:
        return ops;
    }
  }
}

// --- interpreter entry points ---------------------------------------------
//
// Each mirrors the corresponding Drct monitor entry point bit for bit; the
// VmMonitor members below are thin wrappers over them.

void vm_init(const VmProgram& p, const VmFrameRef& f) {
  // Fresh-construction state: the chain activates, charging one op per
  // range of fragment 0 (RangeRecognizer::start), just like the Drct
  // monitor constructors.
  *f.active = 0;
  std::uint64_t ops = 0;
  start_fragment(p, f, ops, 0);
  f.stats->add(ops);
}

void vm_reset(const VmProgram& p, const VmFrameRef& f) {
  // Stats first: restart re-runs the activation ops a fresh monitor
  // carries; clearing afterwards would lose them (mon_reset_reuse_test).
  f.stats->reset();
  std::uint64_t ops = 0;
  restart_chain(p, f, ops);
  f.stats->add(ops);
  *f.verdict = Verdict::Monitoring;
  f.violation->reset();
  *f.armed = 0;
  *f.q_done = 0;
  *f.validated_or_rounds = 0;
  *f.ordinal = 0;
}

void vm_step_event(const VmProgram& p, const VmFrameRef& f, spec::Name name,
                   sim::Time time) {
  MonitorStats& st = *f.stats;
  ++st.events;  // begin_event(); the core returns this event's exact spend
  const std::uint64_t ops = step_event_core(p, f, p.code.data(), name, time);
  st.ops += ops;  // end_event(): flush the register-held spend
  if (ops > st.max_ops_per_event) st.max_ops_per_event = ops;
}

void vm_run_batch(const VmProgram& p, const VmFrameRef& f,
                  const spec::TimedEvent* begin, const spec::TimedEvent* end,
                  sim::Time shift) {
  // Same per-event schedule as vm_step_event in a loop — the events/ops/
  // max-ops totals land identically, they just flush once per slice, and a
  // retired frame fast-forwards instead of stepping.  Each event is stepped
  // at its time plus `shift` (saturating): a shifted piece of a mutant's
  // spec::TraceView.
  MonitorStats& st = *f.stats;
  const Insn* const code = p.code.data();
  LOOM_DASSERT(code[0].op == Op::RetireIfDone);
  const unsigned retire_mask = code[0].a;
  std::uint64_t total = 0;
  std::uint64_t max_ops = st.max_ops_per_event;
  for (const auto* ev = begin; ev != end; ++ev) {
    if ((retire_mask >> static_cast<unsigned>(*f.verdict)) & 1) {
      // Retired: every remaining event would halt at retire.if for 0 ops
      // and only bump the ordinal, so advance it over the rest at once.
      *f.ordinal += static_cast<std::uint64_t>(end - ev);
      break;
    }
    const std::uint64_t ops =
        step_event_core(p, f, code, ev->name, ev->time + shift);
    total += ops;
    if (ops > max_ops) max_ops = ops;
  }
  st.events += static_cast<std::uint64_t>(end - begin);
  st.ops += total;
  st.max_ops_per_event = max_ops;
}

void vm_finish(const VmProgram& p, const VmFrameRef& f, sim::Time end_time) {
  if (!p.timed) return;  // pure safety: nothing to check at the end
  if (*f.verdict == Verdict::Violated) return;
  if (*f.armed && !*f.q_done && end_time > *f.t_start + p.bound) {
    vm_violate(f, *f.ordinal, end_time, spec::kInvalidName,
               {spec::ReasonCode::EndedLate});
    return;
  }
  // Earliest-match: a round whose consequent reached its minimum within
  // the deadline has met its obligation even if the final block is open.
  if (*f.q_done) *f.verdict = Verdict::Monitoring;
}

void vm_poll(const VmProgram& p, const VmFrameRef& f, sim::Time now) {
  if (!p.timed) return;
  if (*f.verdict == Verdict::Violated) return;
  if (*f.armed && !*f.q_done && now > *f.t_start + p.bound) {
    vm_violate(f, *f.ordinal, now, spec::kInvalidName,
               {spec::ReasonCode::DeadlineWatchdog});
  }
}

// --- the packed snapshot layout -------------------------------------------

// The tag and shape words, then 8 header words (see VmMonitor::snapshot).
constexpr std::size_t kLeadWords = 2;
constexpr std::size_t kHeaderWords = 8;

// The shape guard: a snapshot only restores into a frame of the same
// program shape (cf. ClauseMonitor's clause-count check).
std::uint64_t shape_word(const VmProgram& p) {
  return std::uint64_t{p.range_total} | std::uint64_t{p.frag_count} << 32;
}

std::size_t packed_bytes(const VmProgram& p) {
  return std::size_t{5} * p.range_total + std::size_t{2} * p.frag_count;
}

// The words after the lead: header, fragment times and packed bytes.
std::size_t body_words(const VmProgram& p) {
  return kHeaderWords + p.frag_count + (packed_bytes(p) + 7) / 8;
}

}  // namespace

// --- VmMonitor ------------------------------------------------------------

VmMonitor::VmMonitor(std::shared_ptr<const VmProgram> program)
    : program_(std::move(program)),
      range_state_(program_->range_total,
                   static_cast<std::uint8_t>(RS::Idle)),
      range_cpt_(program_->range_total, 0),
      frag_min_complete_(program_->frag_count, 0),
      frag_in_progress_(program_->frag_count, 0),
      frag_min_time_(program_->frag_count),
      frame_(make_ref()) {
  vm_init(*program_, frame_);
}

VmFrameRef VmMonitor::make_ref() {
  return VmFrameRef{range_state_.data(), range_cpt_.data(),
                    frag_min_complete_.data(), frag_in_progress_.data(),
                    frag_min_time_.data(),
                    &active_, &verdict_, &violation_, &stats_,
                    &armed_, &q_done_, &t_start_, &t_stop_,
                    &validated_or_rounds_, &ordinal_};
}

std::optional<sim::Time> VmMonitor::deadline() const {
  if (program_->timed && armed_ && !q_done_) {
    return t_start_ + program_->bound;
  }
  return std::nullopt;
}

void VmMonitor::observe(spec::Name name, sim::Time time) {
  vm_step_event(*program_, frame_, name, time);
}

void VmMonitor::observe_shifted(const spec::TimedEvent* begin,
                                const spec::TimedEvent* end,
                                sim::Time shift) {
  vm_run_batch(*program_, frame_, begin, end, shift);
}

void VmMonitor::finish(sim::Time end_time) {
  vm_finish(*program_, frame_, end_time);
}

void VmMonitor::poll(sim::Time now) { vm_poll(*program_, frame_, now); }

void VmMonitor::reset() { vm_reset(*program_, frame_); }

void VmMonitor::snapshot(Snapshot& out) const {
  const VmProgram& p = *program_;
  out.clear();
  // One block holds everything but the violation; it comes zero-filled,
  // so the padding past the packed bytes is deterministic: two snapshots
  // of the same state write the same words.
  std::uint64_t* const w = out.put_block(kLeadWords + body_words(p));
  w[0] = snapshot_tag(kSnapshotKind);
  w[1] = shape_word(p);
  std::uint64_t* const head = w + kLeadWords;
  head[0] = stats_.ops;
  head[1] = stats_.events;
  head[2] = stats_.max_ops_per_event;
  head[3] = t_start_.picoseconds();
  head[4] = t_stop_.picoseconds();
  head[5] = validated_or_rounds_;
  head[6] = ordinal_;
  head[7] = std::uint64_t{active_} |
            std::uint64_t{static_cast<std::uint8_t>(verdict_)} << 32 |
            std::uint64_t{armed_} << 40 | std::uint64_t{q_done_} << 48;
  std::uint64_t* const times = head + kHeaderWords;
  for (std::uint32_t frag = 0; frag < p.frag_count; ++frag) {
    times[frag] = frag_min_time_[frag].picoseconds();
  }
  auto* bytes = reinterpret_cast<unsigned char*>(times + p.frag_count);
  std::memcpy(bytes, range_cpt_.data(), std::size_t{4} * p.range_total);
  bytes += std::size_t{4} * p.range_total;
  std::memcpy(bytes, range_state_.data(), p.range_total);
  bytes += p.range_total;
  std::memcpy(bytes, frag_min_complete_.data(), p.frag_count);
  bytes += p.frag_count;
  std::memcpy(bytes, frag_in_progress_.data(), p.frag_count);
  snapshot_violation(out, violation_);
}

void VmMonitor::restore(const Snapshot& in) {
  const VmProgram& p = *program_;
  SnapshotReader r(in);
  check_snapshot_tag(r.u64(), kSnapshotKind, "VmMonitor::restore");
  if (r.u64() != shape_word(p)) {
    throw std::logic_error(
        "VmMonitor::restore: snapshot of a different program shape");
  }
  const std::uint64_t* const head = r.block(body_words(p));
  stats_.ops = head[0];
  stats_.events = head[1];
  stats_.max_ops_per_event = head[2];
  t_start_ = sim::Time::ps(head[3]);
  t_stop_ = sim::Time::ps(head[4]);
  validated_or_rounds_ = head[5];
  ordinal_ = head[6];
  active_ = static_cast<std::uint32_t>(head[7]);
  verdict_ = static_cast<Verdict>(static_cast<std::uint8_t>(head[7] >> 32));
  armed_ = static_cast<std::uint8_t>(head[7] >> 40);
  q_done_ = static_cast<std::uint8_t>(head[7] >> 48);
  const std::uint64_t* const times = head + kHeaderWords;
  for (std::uint32_t frag = 0; frag < p.frag_count; ++frag) {
    frag_min_time_[frag] = sim::Time::ps(times[frag]);
  }
  const auto* bytes =
      reinterpret_cast<const unsigned char*>(times + p.frag_count);
  std::memcpy(range_cpt_.data(), bytes, std::size_t{4} * p.range_total);
  bytes += std::size_t{4} * p.range_total;
  std::memcpy(range_state_.data(), bytes, p.range_total);
  bytes += p.range_total;
  std::memcpy(frag_min_complete_.data(), bytes, p.frag_count);
  bytes += p.frag_count;
  std::memcpy(frag_in_progress_.data(), bytes, p.frag_count);
  restore_violation(r, violation_);
  LOOM_DASSERT(r.exhausted());  // format drift: snapshot wrote more fields
}

}  // namespace loom::mon
