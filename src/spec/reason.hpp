// Failure reasons as values: what a checker saw go wrong, recorded as a
// code plus the operands its diagnostic prints, and rendered to text only
// when a caller asks.
//
// Every checker — the reference oracle (spec/reference.hpp), the Drct
// monitors (mon/), the ViaPSL clause monitor (psl/) — records
// its failures this way, so a rejected mutant costs no string formatting:
// the campaign engine reads verdicts, never the text.  One code stands for
// one fixed sentence; checkers that word a failure differently use
// different codes, so text() is exactly the diagnostic of the checker that
// recorded the reason.  A Reason is a trivially copyable 32-byte value:
// copying one, storing one in a snapshot or comparing two never touches
// the heap.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace loom::spec {

/// One failure sentence each.  The operands a code prints are listed with
/// it: n[i] are Reason::ints, t[i] are Reason::times.
enum class ReasonCode : std::uint8_t {
  None,  // no failure
  // A range block's count (the oracle's walker and the Drct recognizers).
  BlockBelowLo,   // "block ended after n0 occurrences, below u=n1"
  BlockReopened,  // "range block reopened after it ended"
  // The reference oracle's round walker.
  RunOverHi,  // "more than v=n0 consecutive occurrences of the range name"
  StopBlockBelowLo,  // "fragment stopped while a block had only n0
                     // occurrences, below u=n1"
  ConjIncomplete,    // "conjunctive fragment stopped before all its ranges
                     // were observed"
  DisjIncomplete,    // "disjunctive fragment stopped before any of its
                     // ranges was observed"
  EarlyTrigger,      // "trigger observed before the pattern was recognized"
  CompletedFragment,  // "name belongs to an already-completed fragment"
  LaterFragment,      // "name belongs to a later fragment"
  OutsideAlphabet,    // "name not in the property alphabet"
  FinishedLate,       // "consequent finished after the deadline"
  // The Drct range recognizers (paper Fig. 5).
  NeverStarted,     // "fragment stopped before any of its ranges started"
  OutsideFragment,  // "name from outside the active fragment (B or Af)"
  ConjUnobserved,   // "conjunctive fragment stopped before one of its ranges
                    // was observed"
  CountOverHi,      // "more than v=n0 consecutive occurrences"
  StopBelowLo,      // "fragment stopped after n0 occurrences, below u=n1"
  // Deadlines (every checker).
  DeadlineElapsed,   // "deadline elapsed before the consequent finished"
  DeadlineWatchdog,  // the same, suffixed " (watchdog)"
  EndedLate,         // "observation ended after the deadline with the
                     // consequent unfinished"
  FinishedLateBy,    // "consequent finished after the deadline (took t0,
                     // bound t1)"
  // The ViaPSL monitor's run-length lexer and clause network.
  LexerOverHi,   // "lexer: block of 'n0' exceeds v=n1" (n0: a source name)
  LexerBelowLo,  // "lexer: block of 'n0' ended after n1 occurrences, below
                 // u=n2"
  PslConjunct,   // "PSL conjunct violated (...): ..."; n0 is the clause's
                 // index, and the text, which prints the clause formula,
                 // is rendered through the encoding (mon::Violation::detail)
};

struct Reason {
  ReasonCode code = ReasonCode::None;
  /// Integer operands, in the order the code's sentence prints them.
  std::array<std::uint32_t, 3> ints{};
  /// Time operands, in the order the code's sentence prints them.
  std::array<sim::Time, 2> times{};

  bool empty() const { return code == ReasonCode::None; }
  /// The sentence, operands filled in ("" for None).  PslConjunct has no
  /// encoding-free sentence: it renders "PSL conjunct violated", and
  /// mon::Violation::text() supplies the full one.
  std::string text() const;

  bool operator==(const Reason&) const = default;
};

}  // namespace loom::spec
