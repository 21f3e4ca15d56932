//! Bytecode compilation of property plans: backend #3 (Backend::Vm).
//!
//! compile_vm() lowers one property's spec::OrderingPlan — the same
//! translate-once tables the Drct monitors walk through virtual recognizer
//! objects — into a flat VmProgram a single dispatch loop executes
//! (mon/vm.hpp).  The lowering follows the classic chunk / constant-pool /
//! dispatch-loop architecture of register VMs:
//!
//!   - an *instruction stream* (8-byte Insn records) encoding the per-event
//!     control flow: retirement check, alphabet filter, deadline guard,
//!     active-fragment dispatch, fragment stepping, chain advance, verdict
//!     latches;
//!   - an *interned constant pool* of range bounds: every distinct
//!     (lo, hi, parent-join) triple is stored once and ranges reference it
//!     by pool index;
//!   - *route tables* resolving, per (event name, range), the Fig. 5 input
//!     class (n / C / Ac / other) with one byte load — replacing the
//!     per-event lazy bitset membership tests of the object recognizers —
//!     plus per-(name, fragment) accept/alphabet flag bytes and a flat
//!     filter byte per name.
//!
//! Determinism: compile_vm() is a pure function of (property, plan); two
//! compilations of the same property yield byte-identical programs, which
//! is what keeps the reference loop's per-unit translation bit-identical
//! to the campaign engine's compiled path under Backend::Vm
//! (campaign_reference_diff_test).  The
//! executed program reproduces the Drct monitors' verdicts, violation
//! reports *and* Figure-6 operation accounting exactly — the abstract op
//! schedule is compiled into the transition tables — so the VM slots into
//! every byte-for-byte invariant grid without a carve-out
//! (tests/mon_bytecode_test.cpp locks VM ≡ Drct event-for-event).
//!
//! Ownership: a VmProgram is immutable after compile_vm() and shared
//! behind shared_ptr by every monitor instance it stamps;
//! sharing one program across threads is safe.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "spec/ast.hpp"
#include "spec/attributes.hpp"

namespace loom::mon {

/// Opcodes of the monitor VM.  One event executes the stream from pc 0
/// until a halting instruction; jumps are absolute instruction indices.
enum class Op : std::uint8_t {
  RetireIfDone,  // a: verdict bit mask; halt when the monitor retired
  Filter,        // charge 1; halt when the name is outside the alphabet
  DeadlineGuard,  // timed: charge 1; latch the overdue violation and halt
  Dispatch,       // charge 1; pc <- frag_entry[active]
  StepFragment,   // a: fragment; jump b on Ok, c on None, d on Err
  Advance,        // a: next fragment; charge 1, start it, re-step; jump b
  CompleteAntecedent,  // ++validated; repeated: restart, else Holds; halt
  CompleteTimed,  // ++rounds, restart, re-step, retime, Pending; halt
  UpdateTiming,   // timed arming / q-done / deadline bookkeeping
  NoteProgress,   // verdict <- in-progress ? Pending : Monitoring
  LatchViolation,  // verdict <- Violated with the erring range's reason
  Halt,
};

const char* to_string(Op op);

/// One 8-byte instruction: opcode, a small operand and three jump/operand
/// slots (absolute pc values fit u16 — programs are a few dozen insns).
struct Insn {
  Op op = Op::Halt;
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t c = 0;
  std::uint16_t d = 0;
};

/// Interned range constants (the VM's constant pool): every distinct
/// (lo, hi, parent-join) triple appears once.
struct RangeConst {
  std::uint32_t lo = 1;
  std::uint32_t hi = 1;
  bool disj_parent = false;  // the s attribute: parent join is ∨

  bool operator==(const RangeConst&) const = default;
};

/// The Fig. 5 input classes a route-table byte resolves per (name, range),
/// in the Drct recognizers' test order (n before C before Ac).
enum NameClass : std::uint8_t {
  kClassN = 0,      // the range's own name
  kClassC = 1,      // sibling range names (C)
  kClassAc = 2,     // the fragment's stopping set (Ac)
  kClassOther = 3,  // B / Af: forbidden here
};

/// Per-(name, fragment) flag bits.
enum FragFlag : std::uint8_t {
  kFlagAccept = 1,    // name ∈ Ac of the fragment
  kFlagAlphabet = 2,  // name ∈ α(fragment)
};

/// A compiled monitor program: immutable, shared by all of its instances.
struct VmProgram {
  // --- header ------------------------------------------------------------
  bool timed = false;     // timed implication vs antecedent requirement
  bool repeated = false;  // antecedent: every trigger needs its own P
  sim::Time bound;        // timed: the deadline t
  std::uint32_t p_last = 0;  // timed: index of P's final fragment
  std::uint32_t q_last = 0;  // timed: index of Q's final fragment
  std::uint32_t frag_count = 0;
  std::uint32_t range_total = 0;  // ranges across all fragments
  std::size_t space_bits = 0;     // the paper's space accounting

  // --- per-fragment tables ----------------------------------------------
  std::vector<std::uint32_t> frag_first;   // first flat range index
  std::vector<std::uint32_t> frag_ranges;  // range count
  std::vector<std::uint8_t> frag_conj;     // join is ∧
  std::vector<std::uint8_t> frag_track_min_time;

  // --- per-range tables + interned constant pool -------------------------
  std::vector<spec::Name> range_name;         // the range's own n
  std::vector<std::uint16_t> range_const;     // index into `pool`
  std::vector<RangeConst> pool;

  // --- route tables (indexed by event name id) ---------------------------
  std::uint32_t table_names = 0;        // name ids covered by the tables
  std::vector<std::uint8_t> filter;     // [table_names]: in plan alphabet
  std::vector<std::uint8_t> route;      // [name * range_total + range]
  std::vector<std::uint8_t> frag_flags;  // [name * frag_count + fragment]

  // --- code ---------------------------------------------------------------
  std::vector<Insn> code;
  std::vector<std::uint16_t> frag_entry;  // pc of each StepFragment

  /// The plan the program was lowered from (kept alive for introspection
  /// and the space/estimate accessors; the interpreter reads tables only).
  std::shared_ptr<const spec::OrderingPlan> plan;

  const RangeConst& consts_of(std::uint32_t range) const {
    return pool[range_const[range]];
  }
};

/// Lowers a property into a VmProgram.  `plan` may be the property's
/// shared translate-once tables (mon::CompiledProperty); when null the
/// plan is computed here (a per-unit translation) — either
/// way the program bytes are identical, compile_vm is a pure function.
std::shared_ptr<const VmProgram> compile_vm(
    const spec::Property& property,
    std::shared_ptr<const spec::OrderingPlan> plan = nullptr);

/// Stable, human-readable program listing: header, constant pool, range
/// table and instruction stream (the golden-disassembly surface of
/// tests/mon_bytecode_test.cpp — route tables are summarized, not dumped).
std::string disassemble(const VmProgram& program);

}  // namespace loom::mon
