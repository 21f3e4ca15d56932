// PSL/LTL formula AST (the fragment used by the paper's §5 encodings).
//
// Formulas are immutable shared trees over a *token* alphabet: after range
// unfolding, every token stands for "a maximal block of k occurrences of a
// range's name" (paper §5, "Dealing with Ranges").  Operators:
//   atoms, !, &&, ||, ->, X (next), U! (strong until), G (always),
//   F (eventually).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "spec/alphabet.hpp"

namespace loom::psl {

enum class Op : std::uint8_t {
  True,
  False,
  Atom,
  Not,
  And,
  Or,
  Implies,
  Next,        // strong next
  Until,       // strong until  (U!)
  Always,      // G
  Eventually,  // F
};

struct Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

struct Formula {
  Op op = Op::True;
  spec::Name atom = spec::kInvalidName;  // for Op::Atom
  FormulaPtr lhs;                        // unary operand / left operand
  FormulaPtr rhs;
};

FormulaPtr f_true();
FormulaPtr f_false();
FormulaPtr f_atom(spec::Name token);
FormulaPtr f_not(FormulaPtr a);
FormulaPtr f_and(FormulaPtr a, FormulaPtr b);
FormulaPtr f_or(FormulaPtr a, FormulaPtr b);
FormulaPtr f_implies(FormulaPtr a, FormulaPtr b);
FormulaPtr f_next(FormulaPtr a);
FormulaPtr f_until(FormulaPtr a, FormulaPtr b);
FormulaPtr f_always(FormulaPtr a);
FormulaPtr f_eventually(FormulaPtr a);

/// Disjunction of atoms; f_false() when empty.
FormulaPtr f_any_of(const std::vector<spec::Name>& tokens);

/// Number of AST nodes.  In the modular monitor construction of [14] every
/// node becomes a small hardware component, so this is the per-event
/// operation count of the generated monitor.
std::size_t size(const FormulaPtr& f);

/// Number of temporal operators (X, U!, G, F): the stateful components of
/// the [14] construction, i.e. the monitor's register count.
std::size_t temporal_size(const FormulaPtr& f);

/// Renders the formula with token names from `vocab` texts.
std::string to_string(const FormulaPtr& f,
                      const std::vector<std::string>& token_texts);
/// The same text appended to `out`: into a buffer with room, no heap
/// traffic.
void append_to(std::string& out, const FormulaPtr& f,
               const std::vector<std::string>& token_texts);

}  // namespace loom::psl
