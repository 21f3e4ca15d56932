#include "mon/compiled.hpp"

#include <stdexcept>

#include "mon/antecedent_monitor.hpp"
#include "mon/timed_monitor.hpp"
#include "mon/vm.hpp"
#include "psl/clause_monitor.hpp"

namespace loom::mon {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::Auto: return "auto";
    case Backend::Drct: return "drct";
    case Backend::ViaPSL: return "viapsl";
    case Backend::Vm: return "vm";
  }
  return "?";
}

std::optional<Backend> parse_backend(std::string_view text) {
  if (text == "auto") return Backend::Auto;
  if (text == "drct") return Backend::Drct;
  if (text == "viapsl") return Backend::ViaPSL;
  if (text == "vm") return Backend::Vm;
  return std::nullopt;
}

std::optional<Backend> parse_backend_arg(int argc, char** argv, int index) {
  if (argc <= index) return Backend::Auto;
  return parse_backend(argv[index]);
}

namespace {

// The paper's Drct per-event bound Θ(max_i |α(Fi)|): only the active
// fragment steps, and its work is linear in the fragment's range count.
// The +2 covers the alphabet filter and the active-fragment dispatch.
std::uint64_t estimate_drct_ops(const spec::OrderingPlan& plan) {
  std::uint64_t widest = 0;
  for (const auto& f : plan.fragments) {
    widest = std::max<std::uint64_t>(widest, f.ranges.size());
  }
  return widest + 2;
}

}  // namespace

CompiledProperty CompiledProperty::compile(const spec::Property& property,
                                           const spec::Alphabet& ab,
                                           const CompileOptions& options) {
  CompiledProperty c;
  c.property_ = std::make_shared<const spec::Property>(property);
  c.plan_ = std::make_shared<const spec::OrderingPlan>(
      property.is_antecedent() ? spec::plan_antecedent(property.antecedent())
                               : spec::plan_timed(property.timed()));
  c.alphabet_ = property.alphabet();
  c.local_of_name_.assign(c.alphabet_.capacity(), support::Interner::kInvalid);
  c.alphabet_.for_each([&](std::size_t name) {
    c.local_of_name_[name] =
        c.names_.intern(ab.text(static_cast<spec::Name>(name)));
  });

  c.requested_ = options.backend;
  c.max_clauses_ = options.max_clauses;
  c.drct_ops_ = estimate_drct_ops(*c.plan_);
  c.viapsl_cost_ = psl::estimate(property);
  // Shape feasibility comes from the translator itself (psl::encodable,
  // the rule behind encode()'s invalid_argument); size from the analytic
  // clause count, so nothing is materialized to judge either.
  c.viapsl_feasible_ = psl::encodable(property) &&
                       c.viapsl_cost_.clauses <= options.max_clauses;

  switch (options.backend) {
    case Backend::Drct:
      c.chosen_ = Backend::Drct;
      break;
    case Backend::ViaPSL:
      // Let psl::encode below report the precise reason (shape / budget).
      c.chosen_ = Backend::ViaPSL;
      break;
    case Backend::Vm:
      c.chosen_ = Backend::Vm;
      break;
    case Backend::Auto: {
      // Per-event work of each construction, from the analytic model alone:
      // nothing is materialized to make this choice.  Drct and Vm tie by
      // construction (the VM runs Drct's op schedule); prefer_vm breaks
      // the tie toward the wall-clock winner, default keeps Drct.
      const std::uint64_t viapsl_ops =
          c.viapsl_cost_.ops_per_token + c.viapsl_cost_.lexer_ops;
      c.chosen_ = c.viapsl_feasible_ && viapsl_ops < c.drct_ops_
                      ? Backend::ViaPSL
                      : (options.prefer_vm ? Backend::Vm : Backend::Drct);
      break;
    }
  }

  if (c.chosen_ == Backend::ViaPSL || options.with_viapsl_artifact) {
    c.encoding_ = std::make_shared<const psl::Encoding>(
        psl::encode(property, options.max_clauses, &ab));
  }
  if (c.chosen_ == Backend::Vm) {
    // compile_vm is pure over (property, plan), so this artifact is byte-
    // identical to the one a per-unit translation rebuilds (the reference
    // loop of campaign_reference_diff_test does).
    c.vm_program_ = compile_vm(property, c.plan_);
  }
  return c;
}

const std::string& CompiledProperty::text_of(spec::Name name) const {
  if (name >= local_of_name_.size() ||
      local_of_name_[name] == support::Interner::kInvalid) {
    throw std::out_of_range("name is not in the compiled alphabet");
  }
  return names_.name(local_of_name_[name]);
}

std::unique_ptr<Monitor> CompiledProperty::instantiate(Backend backend) const {
  if (property_ == nullptr) {
    throw std::logic_error("instantiate() on a default-constructed "
                           "CompiledProperty (run compile() first)");
  }
  switch (backend) {
    case Backend::Drct:
      if (property_->is_antecedent()) {
        return std::make_unique<AntecedentMonitor>(property_->antecedent(),
                                                   plan_);
      }
      return std::make_unique<TimedImplicationMonitor>(property_->timed(),
                                                       plan_);
    case Backend::ViaPSL:
      if (encoding_ == nullptr) {
        throw std::logic_error(
            "ViaPSL was not compiled for this property (set "
            "CompileOptions::with_viapsl_artifact or backend=ViaPSL)");
      }
      return std::make_unique<psl::ClauseMonitor>(encoding_);
    case Backend::Vm:
      if (vm_program_ == nullptr) {
        throw std::logic_error(
            "the VM program was not compiled for this property (compile "
            "with backend=Vm)");
      }
      return std::make_unique<VmMonitor>(vm_program_);
    case Backend::Auto:
      break;
  }
  throw std::logic_error("Auto is a selection policy, not a backend");
}

}  // namespace loom::mon
