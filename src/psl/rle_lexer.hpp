// Run-length lexer: rewrites the raw event stream into the unfolded token
// vocabulary (paper §5, "Dealing with Ranges"; its runtime cost is the Δ of
// the paper's Figure 6).
//
// A maximal block of k consecutive occurrences of a range's name becomes
// the single token name#k.  The token is emitted as soon as the block is
// provably finished: eagerly when k reaches the upper bound v (so trivial
// [1,1] names pass through with no latency), otherwise at the first event
// of a different name.  Blocks whose length falls outside [u,v] are
// reported as errors — the rewritten word would not exist in the unfolded
// vocabulary.
#pragma once

#include <vector>

#include "mon/stats.hpp"
#include "psl/translate.hpp"
#include "spec/reason.hpp"

namespace loom::psl {

class RleLexer {
 public:
  RleLexer(const TokenVocab& vocab, mon::MonitorStats& stats);

  struct Result {
    bool error = false;
    spec::Reason reason;  // LexerOverHi / LexerBelowLo when error
  };

  /// Feeds one source event (must be a source of the vocabulary); emitted
  /// tokens are appended to `out` (0, 1 or 2 tokens).
  Result step(spec::Name source, std::vector<spec::Name>& out);

  /// Closes a trailing block at end of observation.  `pending` is set when
  /// an unfinished block (below its lower bound) remains: not an error on a
  /// finite trace, just an incomplete recognition.
  Result finish(std::vector<spec::Name>& out, bool& pending);

  /// True while a block is accumulating (its token not yet emitted).
  bool block_open() const {
    return current_ != spec::kInvalidName && !emitted_;
  }

  void reset();

  /// Checkpoint support: current-source register, block counter and the
  /// emitted flag (mon/snapshot.hpp).
  void snapshot(mon::Snapshot& out) const;
  void restore(mon::SnapshotReader& in);

  /// Lexer state: the block counter (sized by the largest upper bound), the
  /// current-source register and the emitted flag.
  std::size_t space_bits() const;

 private:
  const TokenVocab* vocab_;
  mon::MonitorStats* stats_;
  spec::Name current_ = spec::kInvalidName;
  std::uint32_t count_ = 0;
  bool emitted_ = false;
};

}  // namespace loom::psl
