#include "spec/reason.hpp"

namespace loom::spec {
namespace {

// "<head>n0<mid>n1" — the shape of every two-count sentence.
std::string counted(const char* head, std::uint32_t n0, const char* mid,
                    std::uint32_t n1) {
  return head + std::to_string(n0) + mid + std::to_string(n1);
}

}  // namespace

std::string Reason::text() const {
  switch (code) {
    case ReasonCode::None:
      return "";
    case ReasonCode::BlockBelowLo:
      return counted("block ended after ", ints[0], " occurrences, below u=",
                     ints[1]);
    case ReasonCode::BlockReopened:
      return "range block reopened after it ended";
    case ReasonCode::RunOverHi:
      return "more than v=" + std::to_string(ints[0]) +
             " consecutive occurrences of the range name";
    case ReasonCode::StopBlockBelowLo:
      return counted("fragment stopped while a block had only ", ints[0],
                     " occurrences, below u=", ints[1]);
    case ReasonCode::ConjIncomplete:
      return "conjunctive fragment stopped before all its ranges were "
             "observed";
    case ReasonCode::DisjIncomplete:
      return "disjunctive fragment stopped before any of its ranges was "
             "observed";
    case ReasonCode::EarlyTrigger:
      return "trigger observed before the pattern was recognized";
    case ReasonCode::CompletedFragment:
      return "name belongs to an already-completed fragment";
    case ReasonCode::LaterFragment:
      return "name belongs to a later fragment";
    case ReasonCode::OutsideAlphabet:
      return "name not in the property alphabet";
    case ReasonCode::FinishedLate:
      return "consequent finished after the deadline";
    case ReasonCode::NeverStarted:
      return "fragment stopped before any of its ranges started";
    case ReasonCode::OutsideFragment:
      return "name from outside the active fragment (B or Af)";
    case ReasonCode::ConjUnobserved:
      return "conjunctive fragment stopped before one of its ranges was "
             "observed";
    case ReasonCode::CountOverHi:
      return "more than v=" + std::to_string(ints[0]) +
             " consecutive occurrences";
    case ReasonCode::StopBelowLo:
      return counted("fragment stopped after ", ints[0],
                     " occurrences, below u=", ints[1]);
    case ReasonCode::DeadlineElapsed:
      return "deadline elapsed before the consequent finished";
    case ReasonCode::DeadlineWatchdog:
      return "deadline elapsed before the consequent finished (watchdog)";
    case ReasonCode::EndedLate:
      return "observation ended after the deadline with the consequent "
             "unfinished";
    case ReasonCode::FinishedLateBy:
      return "consequent finished after the deadline (took " +
             times[0].to_string() + ", bound " + times[1].to_string() + ")";
    case ReasonCode::LexerOverHi:
      return counted("lexer: block of '", ints[0], "' exceeds v=", ints[1]);
    case ReasonCode::LexerBelowLo:
      return counted("lexer: block of '", ints[0], "' ended after ",
                     ints[1]) +
             " occurrences, below u=" + std::to_string(ints[2]);
    case ReasonCode::PslConjunct:
      return "PSL conjunct violated";
  }
  return "?";
}

}  // namespace loom::spec
