//! Compiled property plans: translate a property exactly once, stamp out
//! monitor instances cheaply ever after.
//!
//! A CompiledProperty holds the one-time-translated, immutable artifacts of
//! one property:
//!   - the interned event alphabet (a support::Interner snapshot of the
//!     property's names, so renders never touch the shared spec::Alphabet);
//!   - the flattened recognizer construction tables (spec::OrderingPlan,
//!     the paper's Fig. 4 attribute computation) the Drct monitors execute;
//!   - for ViaPSL, the psl::translate clause set (psl::Encoding).
//! instantiate() stamps a fresh monitor from those shared artifacts without
//! re-running any translation; combined with Monitor::reset() a caller can
//! keep one instance per worker and reuse it across traces.
//!
//! Backend selection: Auto consults psl::cost_model — the analytic per-event
//! operation counts of both constructions, computed without materializing
//! anything — and picks the cheaper monitor (for the paper's properties that
//! is Drct, which is the point of its Figure 6).  Drct / ViaPSL force one
//! side; forcing ViaPSL on an untranslatable shape (timed chain whose final
//! fragment holds several ranges, or an encoding past max_clauses) throws.
//!
//! Ownership: artifacts live behind shared_ptr<const ...>; CompiledProperty
//! is cheap to copy and every instantiated monitor keeps its artifacts
//! alive.  Thread-safety: a CompiledProperty is immutable after compile();
//! sharing one across threads and calling instantiate() concurrently is
//! safe.  Determinism: compile() and the Auto choice are pure functions of
//! the property, so campaigns over compiled plans stay bit-identical to
//! the reference loop's per-unit translation
//! (tests/campaign_reference_diff_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mon/verdict.hpp"
#include "psl/cost_model.hpp"
#include "psl/translate.hpp"
#include "spec/attributes.hpp"
#include "support/interner.hpp"

namespace loom::mon {

struct VmProgram;  // mon/bytecode.hpp

/// Which monitor construction executes a property.
enum class Backend : std::uint8_t {
  Auto,    // pick per property via psl::cost_model
  Drct,    // the paper's direct monitors (§6)
  ViaPSL,  // the PSL clause network of [14] (§5)
  Vm,      // the Drct plan compiled to bytecode (mon/bytecode.hpp)
};

const char* to_string(Backend b);

/// Parses "auto" / "drct" / "viapsl" / "vm" (case-sensitive, the CLI
/// spelling).
std::optional<Backend> parse_backend(std::string_view text);

/// Positional-argv form for the bench/example mains (the sibling of
/// support::parse_count): Backend::Auto when argv[index] is absent,
/// std::nullopt on an unknown spelling — callers report their own usage.
std::optional<Backend> parse_backend_arg(int argc, char** argv, int index);

struct CompileOptions {
  Backend backend = Backend::Auto;
  /// Clause budget for ViaPSL materialization (see psl::encode); Auto never
  /// picks ViaPSL past it, forcing ViaPSL past it throws std::length_error.
  std::size_t max_clauses = 2000000;
  /// Materialize the ViaPSL encoding even when the chosen backend is Drct
  /// (the campaign's check_viapsl cross-check instantiates both sides).
  bool with_viapsl_artifact = false;
  /// Auto tie-break: the VM executes Drct's exact abstract op schedule, so
  /// the two tie under the Figure-6 cost model and ties historically went
  /// to Drct.  With prefer_vm set, Auto resolves that tie to Vm instead —
  /// the wall-clock winner (flat dispatch loop, compact checkpoint rungs) —
  /// while a ViaPSL cost win still takes precedence.  The campaign engine
  /// sets this for every plan it compiles (the reference loop of
  /// campaign_reference_diff_test reads its backend from such a plan);
  /// standalone compile() keeps the historic Drct default.
  bool prefer_vm = false;
};

class CompiledProperty {
 public:
  /// Empty placeholder (so aggregates holding one are default-
  /// constructible); every accessor but requested()/chosen() throws or
  /// dereferences null until compile() assigns a real instance.
  CompiledProperty() = default;

  /// Translates once: plans the recognizer tables, snapshots the interned
  /// alphabet, estimates both backends' costs, resolves Auto, and
  /// materializes the ViaPSL clause set iff it will be instantiated.
  static CompiledProperty compile(const spec::Property& property,
                                  const spec::Alphabet& ab,
                                  const CompileOptions& options = {});

  const spec::Property& property() const { return *property_; }
  /// The backend the caller asked for (possibly Auto).
  Backend requested() const { return requested_; }
  /// The backend instantiate() uses (never Auto).
  Backend chosen() const { return chosen_; }

  /// Flattened recognizer construction tables (shared by all instances).
  const spec::OrderingPlan& plan() const { return *plan_; }
  /// The ViaPSL clause set; nullptr unless chosen()==ViaPSL or
  /// CompileOptions::with_viapsl_artifact was set.
  const psl::Encoding* encoding() const { return encoding_.get(); }

  /// The property's interned event names: ids (in the source alphabet's
  /// numbering) with an immutable text snapshot, usable without the — in
  /// campaigns lazily growing — spec::Alphabet.
  const spec::NameSet& alphabet() const { return alphabet_; }
  const std::string& text_of(spec::Name name) const;

  /// The compiled bytecode program; nullptr unless chosen()==Vm.
  const VmProgram* vm_program() const { return vm_program_.get(); }
  /// Owning form of the same artifact, for executors that outlive a plain
  /// borrow (a stamped VmMonitor takes shared ownership the same way).
  std::shared_ptr<const VmProgram> vm_program_shared() const {
    return vm_program_;
  }

  /// Analytic per-event operation estimates that drive the Auto choice.
  std::uint64_t drct_ops_per_event() const { return drct_ops_; }
  /// The VM executes the Drct plan's exact abstract op schedule (that is
  /// its bit-identity contract), so its analytic per-event cost equals the
  /// Drct estimate — the Drct/Vm choice is a pure tie under the paper's
  /// Figure-6 operation count, broken by CompileOptions::prefer_vm
  /// (default off: ties go Drct, the historic behavior).
  std::uint64_t vm_ops_per_event() const { return drct_ops_; }
  const psl::PslCost& viapsl_cost() const { return viapsl_cost_; }
  /// False when the ViaPSL construction cannot be materialized (shape or
  /// clause budget); Auto then resolves to Drct unconditionally.
  bool viapsl_feasible() const { return viapsl_feasible_; }
  /// The clause budget this property was compiled under (callers that
  /// re-translate — the reference loop of campaign_reference_diff_test —
  /// must reuse it, not restate it).
  std::size_t max_clauses() const { return max_clauses_; }

  /// Stamps a fresh monitor of the chosen backend from the shared
  /// artifacts: no parsing, no planning, no clause translation.
  std::unique_ptr<Monitor> instantiate() const { return instantiate(chosen_); }
  /// Stamps a specific backend; the artifact must have been compiled
  /// (ViaPSL without an encoding throws std::logic_error), Auto is not an
  /// instantiable backend.
  std::unique_ptr<Monitor> instantiate(Backend backend) const;

 private:
  std::shared_ptr<const spec::Property> property_;
  std::shared_ptr<const spec::OrderingPlan> plan_;
  std::shared_ptr<const psl::Encoding> encoding_;
  std::shared_ptr<const VmProgram> vm_program_;
  spec::NameSet alphabet_;
  support::Interner names_;                 // dense snapshot of the texts
  std::vector<std::uint32_t> local_of_name_;  // alphabet id -> snapshot id
  Backend requested_ = Backend::Auto;
  Backend chosen_ = Backend::Drct;
  std::size_t max_clauses_ = 0;
  std::uint64_t drct_ops_ = 0;
  psl::PslCost viapsl_cost_;
  bool viapsl_feasible_ = false;
};

}  // namespace loom::mon
