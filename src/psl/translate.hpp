// Translation of loose-ordering patterns into PSL (paper §5) and into the
// clause structure executed by the ViaPSL monitors.
//
// Range unfolding: every range n[u,v] is replaced by the fresh names
// n#u .. n#v ("tokens"); a run-length lexer (rle_lexer.*) rewrites the
// event stream into tokens, at the cost the paper calls Δ.  The encoding of
// an antecedent requirement A = (P << i, b) is the conjunction of:
//
//   Asynch   G !(nx && ny)                 all pairs of distinct tokens
//   MaxOne   G (nx -> X(!nx U! i))         every token of P
//   Range    G (nx -> (!ny U! i))          ordered pairs within one range
//   Order    G (nx -> (!my U! i))          nx in F_k, my in F_(k-1)
//   BeforeI  (!i U! (nx1 || ... || nxk))   one per range (per ∨-fragment:
//                                          one clause over the fragment)
//   AfterI   G (i -> X(!i U! (nx1||...)))  same groups; only when b = true
//
// For a timed implication (P => Q, t) the chain P ++ Q is encoded the same
// way with the tokens of Q's final fragment playing the role of i (the
// paper's "end of Q as reset point"); the final fragment must then hold a
// single range.  The real-time bound is checked outside PSL, at token
// granularity: ClauseMonitor starts the obligation when the lexer emits
// P's last token and stops it when Q's tokens are all seen.  Those are not
// the Drct monitor's start/stop instants (the minimum-completion times of
// P's and Q's last fragments).
//
// The ViaPSL monitor therefore misses some bad prefixes the oracle and
// Drct reject (no false alarm has been found).  Three causes, with witnesses
// (event names 10 ns apart unless times are shown):
//   (a) The deadline starts at token emission.  The lexer emits P's last
//       token only when its run ends, at the next distinct name, so a
//       stall between P and Q moves the start along with it.  For
//       (p[2,3] => q[1,4] < r, 10us), "p@0.26us p@0.68us q@21.17us
//       r@21.59us": Drct rejects at event 2 ("deadline elapsed before the
//       consequent finished"); ViaPSL accepts.
//   (b) An open run at finish() is never tokenized.  RleLexer::finish
//       calls a block below its lower bound weakly acceptable and emits no
//       token, so an out-of-order name in a trailing run reaches no
//       clause.  For (p[2,3] => q[1,4] < r, 1ms), "p p p q p": Drct
//       rejects at event 4 ("name from outside the active fragment");
//       ViaPSL does not reject until a further q closes the run ("lexer:
//       block ... ended after 1 occurrences, below u=2").
//   (c) Non-informative bad prefixes.  The round can no longer complete,
//       but every conjunct on its own is still satisfiable, so no clause
//       fails yet and ViaPSL does not reject: "a b c i c" for (({a, b}, &)
//       < c << i, true) (append a and the Order clause fires), "n1 n2 n3
//       n4 n2" for (n1 => n2 < n3 < n4, 1ms), and the one-event trace "c"
//       for (({a, b}, |) < c << i, false).
// This is why the reference grid (tests/campaign_reference_diff_test.cpp)
// asserts ok() for every backend except ViaPSL.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "psl/formula.hpp"
#include "sim/time.hpp"
#include "spec/ast.hpp"

namespace loom::psl {

/// One source interface name with its unfolded token interval.
struct SourceRange {
  spec::Name source = spec::kInvalidName;
  std::uint32_t lo = 1;
  std::uint32_t hi = 1;
  spec::Name first_token = 0;   // tokens first_token .. first_token+(hi-lo)
  std::size_t fragment = npos;  // owning chain fragment; npos for triggers
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Token vocabulary: dense ids for the unfolded names.
class TokenVocab {
 public:
  spec::Name add_source(spec::Name source, std::uint32_t lo, std::uint32_t hi,
                        std::size_t fragment, const std::string& text);

  std::size_t token_count() const { return texts_.size(); }
  const std::vector<std::string>& texts() const { return texts_; }
  const std::vector<SourceRange>& sources() const { return sources_; }

  bool has_source(spec::Name source) const {
    return by_source_.count(source) != 0;
  }
  const SourceRange& source_info(spec::Name source) const {
    return sources_[by_source_.at(source)];
  }

  /// Token for a block of `count` occurrences; kInvalidName if out of range.
  spec::Name token_for(spec::Name source, std::uint32_t count) const;

  /// All tokens of one source range.
  std::vector<spec::Name> tokens_of(const SourceRange& sr) const;

 private:
  std::vector<std::string> texts_;
  std::vector<SourceRange> sources_;
  std::unordered_map<spec::Name, std::size_t> by_source_;
};

enum class ClauseKind : std::uint8_t { Mutex, MaxOne, Range, Order, Before, After };

const char* to_string(ClauseKind k);

/// One conjunct of the encoding, together with the 1-bit automaton that
/// monitors it:  violated when an armed clause sees a forbidden token.
struct Clause {
  ClauseKind kind = ClauseKind::Mutex;
  spec::NameSet arm;
  spec::NameSet forbid;
  spec::NameSet disarm;
  bool initially_armed = false;
  FormulaPtr formula;
  std::size_t cost_ops = 0;   // size(formula): per-event work in [14]
  std::size_t cost_bits = 0;  // temporal_size(formula): registers in [14]
};

struct Encoding {
  TokenVocab vocab;
  std::vector<Clause> clauses;
  spec::NameSet reset_tokens;    // trigger tokens / Q-final tokens
  bool retire_on_reset = false;  // antecedent with b = false

  // Timed-implication bookkeeping (token-granular timing).
  bool timed = false;
  sim::Time bound;
  std::size_t p_fragment_count = 0;
  struct FragmentTokens {
    spec::Join join = spec::Join::Conj;
    std::vector<spec::NameSet> per_range;
  };
  std::vector<FragmentTokens> fragments;

  /// Per-event monitor work: every clause evaluates on every token ([14]).
  std::uint64_t ops_per_token() const;
  /// State bits of the clause network (excluding the lexer).
  std::uint64_t clause_bits() const;
};

/// Builds the encoding; throws std::length_error when more than
/// `max_clauses` conjuncts would be needed (use the analytic cost model
/// from cost_model.hpp instead) and std::invalid_argument for unsupported
/// shapes (timed chain whose final fragment has several ranges).  Passing
/// the alphabet gives human-readable token texts in printed formulas.
Encoding encode(const spec::Antecedent& a, std::size_t max_clauses = 2000000,
                const spec::Alphabet* ab = nullptr);
Encoding encode(const spec::TimedImplication& t,
                std::size_t max_clauses = 2000000,
                const spec::Alphabet* ab = nullptr);
Encoding encode(const spec::Property& p, std::size_t max_clauses = 2000000,
                const spec::Alphabet* ab = nullptr);

/// True when the property's *shape* has a ViaPSL encoding at all — the
/// same rule encode() enforces with std::invalid_argument, kept next to it
/// so feasibility gates (mon::CompiledProperty's Auto choice) can never
/// drift from the translator.  Size is judged separately, against the
/// analytic clause count of cost_model.hpp.
bool encodable(const spec::Property& p);

}  // namespace loom::psl
