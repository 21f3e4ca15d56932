//! Coverage measurement (the "coverage improver" input of the paper's
//! Fig. 1): which part of a property's behaviour a stimuli set exercised.
//!
//!   AlphabetCoverage    which interface names were observed at all;
//!   RecognizerCoverage  which states of each Fig. 5 range recognizer were
//!                       visited and whether the block-length bounds u and v
//!                       were actually hit.
//!
//! Ownership: RecognizerCoverage owns its rows and borrows nothing; each
//! sample() reads the Drct antecedent monitor it is handed (its Fig. 5
//! range automata), so one instance can accumulate over any number of
//! monitors of the same property — the campaign engine samples every valid
//! unit of a shard into one.  A ViaPSL-backed campaign has no recognizer
//! structure to sample and reports 1.0.
//! Thread-safety: instances are single-thread; campaign shards each sample
//! into their own instance and merge() afterwards.
//! Determinism: merge() is an order-independent union (state masks OR,
//! block maxima max), which is what lets shard merges stay bit-identical
//! at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mon/antecedent_monitor.hpp"

namespace loom::abv {

class AlphabetCoverage {
 public:
  explicit AlphabetCoverage(spec::NameSet alphabet)
      : alphabet_(std::move(alphabet)) {}

  void record(spec::Name name) {
    if (alphabet_.test(name)) seen_.set(name);
  }

  std::size_t total() const { return alphabet_.count(); }
  std::size_t covered() const { return seen_.count(); }
  double ratio() const {
    return total() == 0 ? 1.0
                        : static_cast<double>(covered()) /
                              static_cast<double>(total());
  }
  spec::NameSet missed() const {
    spec::NameSet m = alphabet_;
    m.subtract(seen_);
    return m;
  }
  /// Order-independent union with another shard's coverage of the same
  /// alphabet (campaign shards each record into their own instance).
  void merge(const AlphabetCoverage& other) { seen_ |= other.seen_; }
  /// The observed subset (always ⊆ the alphabet): what a worker process
  /// ships over the wire — the parent replays it through record().
  const spec::NameSet& seen() const { return seen_; }
  std::string report(const spec::Alphabet& ab) const;

 private:
  spec::NameSet alphabet_;
  spec::NameSet seen_;
};

/// Structural coverage of an antecedent monitor's range recognizers: call
/// sample() after every observed event (or, equivalently, after the first
/// event and every event of the property alphabet — no other event can
/// move a range automaton).  Sampling several monitors of the same property
/// into one instance equals sampling each into its own and merging.
class RecognizerCoverage {
 public:
  /// One range recognizer's coverage row: which of its six states were
  /// visited (bit per RangeRecognizer::State) and the longest block seen,
  /// against the plan's [lo, hi] bounds.  Public because the wire codec
  /// ships these rows verbatim between worker and parent processes.
  struct RangeCov {
    spec::Name name = spec::kInvalidName;
    std::uint8_t state_mask = 0;
    std::uint32_t max_count = 0;
    std::uint32_t lo = 1, hi = 1;
  };

  /// Empty rows shaped after the monitor's range recognizers.
  explicit RecognizerCoverage(const mon::AntecedentMonitor& monitor);

  /// Rebuilds an instance from wire-decoded rows.
  explicit RecognizerCoverage(std::vector<std::vector<RangeCov>> rows)
      : per_fragment_(std::move(rows)) {}

  /// Records the monitor's current range states and block counters.
  void sample(const mon::AntecedentMonitor& monitor);

  /// Order-independent union with coverage sampled from another monitor of
  /// the same property (state masks OR, block-length maxima take the max).
  /// Both sides must have the same rows (same_rows).
  void merge(const RecognizerCoverage& other);
  /// True when `rows` has this instance's shape and, row for row, its
  /// names and bounds: what a worker's rows must pass before they merge.
  bool same_rows(const std::vector<std::vector<RangeCov>>& rows) const;

  /// Visited states over reachable states (6 per range recognizer).
  double state_ratio() const;
  /// Ranges whose block length reached the lower / upper bound.
  std::size_t lo_bound_hits() const;
  std::size_t hi_bound_hits() const;

  std::string report(const spec::Alphabet& ab) const;

  /// Row access for the wire codec (fragment-major, recognizer-minor).
  const std::vector<std::vector<RangeCov>>& per_fragment() const {
    return per_fragment_;
  }

 private:
  std::vector<std::vector<RangeCov>> per_fragment_;
};

}  // namespace loom::abv
