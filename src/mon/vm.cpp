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

}  // namespace

// --- interpreter entry points ---------------------------------------------

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
  // retired frame fast-forwards instead of stepping.
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

void vm_snapshot(const VmProgram& p, const VmFrameRef& f, Snapshot& out) {
  out.clear();
  out.put_u64(snapshot_tag(kSnapshotKind));
  // Shape guard: a snapshot only restores into an instance of the same
  // program shape (cf. ClauseMonitor's clause-count check).
  out.put_u64(p.range_total);
  out.put_u64(p.frag_count);
  f.stats->snapshot(out);
  out.put_u64(*f.active);
  for (std::uint32_t r = 0; r < p.range_total; ++r) {
    out.put_u64(f.range_state[r]);
    out.put_u64(f.range_cpt[r]);
  }
  for (std::uint32_t frag = 0; frag < p.frag_count; ++frag) {
    out.put_bool(f.frag_min_complete[frag] != 0);
    out.put_bool(f.frag_in_progress[frag] != 0);
    out.put_time(f.frag_min_time[frag]);
  }
  out.put_u64(static_cast<std::uint64_t>(*f.verdict));
  snapshot_violation(out, *f.violation);
  out.put_bool(*f.armed != 0);
  out.put_bool(*f.q_done != 0);
  out.put_time(*f.t_start);
  out.put_time(*f.t_stop);
  out.put_u64(*f.validated_or_rounds);
  out.put_u64(*f.ordinal);
}

void vm_restore(const VmProgram& p, const VmFrameRef& f, const Snapshot& in,
                const char* who) {
  SnapshotReader r(in);
  check_snapshot_tag(r.u64(), kSnapshotKind, who);
  if (r.u64() != p.range_total || r.u64() != p.frag_count) {
    throw std::logic_error(std::string(who) +
                           ": snapshot of a different program shape");
  }
  f.stats->restore(r);
  *f.active = static_cast<std::uint32_t>(r.u64());
  for (std::uint32_t i = 0; i < p.range_total; ++i) {
    f.range_state[i] = static_cast<std::uint8_t>(r.u64());
    f.range_cpt[i] = static_cast<std::uint32_t>(r.u64());
  }
  for (std::uint32_t frag = 0; frag < p.frag_count; ++frag) {
    f.frag_min_complete[frag] = r.boolean() ? 1 : 0;
    f.frag_in_progress[frag] = r.boolean() ? 1 : 0;
    f.frag_min_time[frag] = r.time();
  }
  *f.verdict = static_cast<Verdict>(r.u64());
  restore_violation(r, *f.violation);
  *f.armed = r.boolean() ? 1 : 0;
  *f.q_done = r.boolean() ? 1 : 0;
  *f.t_start = r.time();
  *f.t_stop = r.time();
  *f.validated_or_rounds = r.u64();
  *f.ordinal = r.u64();
  LOOM_DASSERT(r.exhausted());  // format drift: snapshot wrote more fields
}

namespace {

constexpr std::size_t kRungHeaderWords = 8;

std::size_t rung_packed_bytes(const VmProgram& p) {
  return std::size_t{5} * p.range_total + std::size_t{2} * p.frag_count;
}

}  // namespace

std::size_t vm_rung_words(const VmProgram& p) {
  return kRungHeaderWords + p.frag_count + (rung_packed_bytes(p) + 7) / 8;
}

bool vm_save_rung(const VmProgram& p, const VmFrameRef& f,
                  std::uint64_t* out) {
  if (f.violation->has_value()) return false;
  for (std::uint32_t r = 0; r < p.range_total; ++r) {
    if (f.range_state[r] == static_cast<std::uint8_t>(RS::Error)) return false;
  }
  out[0] = f.stats->ops;
  out[1] = f.stats->events;
  out[2] = f.stats->max_ops_per_event;
  out[3] = f.t_start->picoseconds();
  out[4] = f.t_stop->picoseconds();
  out[5] = *f.validated_or_rounds;
  out[6] = *f.ordinal;
  out[7] = std::uint64_t{*f.active} |
           std::uint64_t{static_cast<std::uint8_t>(*f.verdict)} << 32 |
           std::uint64_t{*f.armed} << 40 | std::uint64_t{*f.q_done} << 48;
  std::uint64_t* const times = out + kRungHeaderWords;
  for (std::uint32_t frag = 0; frag < p.frag_count; ++frag) {
    times[frag] = f.frag_min_time[frag].picoseconds();
  }
  std::uint64_t* const packed = times + p.frag_count;
  // Zero the tail word first so the padding bytes past the packed arrays
  // are deterministic: two saves of the same state write the same words.
  if (rung_packed_bytes(p) % 8 != 0) packed[rung_packed_bytes(p) / 8] = 0;
  auto* bytes = reinterpret_cast<unsigned char*>(packed);
  std::memcpy(bytes, f.range_cpt, std::size_t{4} * p.range_total);
  bytes += std::size_t{4} * p.range_total;
  std::memcpy(bytes, f.range_state, p.range_total);
  bytes += p.range_total;
  std::memcpy(bytes, f.frag_min_complete, p.frag_count);
  bytes += p.frag_count;
  std::memcpy(bytes, f.frag_in_progress, p.frag_count);
  return true;
}

void vm_load_rung(const VmProgram& p, const VmFrameRef& f,
                  const std::uint64_t* in) {
  f.stats->ops = in[0];
  f.stats->events = in[1];
  f.stats->max_ops_per_event = in[2];
  *f.t_start = sim::Time::ps(in[3]);
  *f.t_stop = sim::Time::ps(in[4]);
  *f.validated_or_rounds = in[5];
  *f.ordinal = in[6];
  *f.active = static_cast<std::uint32_t>(in[7]);
  *f.verdict = static_cast<Verdict>(static_cast<std::uint8_t>(in[7] >> 32));
  *f.armed = static_cast<std::uint8_t>(in[7] >> 40);
  *f.q_done = static_cast<std::uint8_t>(in[7] >> 48);
  // A rung never holds a violation (vm_save_rung refuses one), so
  // whatever the frame carried before is cleared here.
  f.violation->reset();
  const std::uint64_t* const times = in + kRungHeaderWords;
  for (std::uint32_t frag = 0; frag < p.frag_count; ++frag) {
    f.frag_min_time[frag] = sim::Time::ps(times[frag]);
  }
  const auto* bytes =
      reinterpret_cast<const unsigned char*>(times + p.frag_count);
  std::memcpy(f.range_cpt, bytes, std::size_t{4} * p.range_total);
  bytes += std::size_t{4} * p.range_total;
  std::memcpy(f.range_state, bytes, p.range_total);
  bytes += p.range_total;
  std::memcpy(f.frag_min_complete, bytes, p.frag_count);
  bytes += p.frag_count;
  std::memcpy(f.frag_in_progress, bytes, p.frag_count);
}

void VmMonitor::snapshot(Snapshot& out) const {
  vm_snapshot(*program_, frame_, out);
}

void VmMonitor::restore(const Snapshot& in) {
  vm_restore(*program_, frame_, in, "VmMonitor::restore");
}

}  // namespace loom::mon
