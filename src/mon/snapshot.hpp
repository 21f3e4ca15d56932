//! Serialized monitor state: a flat, reusable buffer holding what
//! Monitor::fork_from copies in place.  The campaign engine's forked replay
//! copies the paused walker directly and never serializes; a Snapshot is
//! for state that has to exist apart from a live instance — Checker::run's
//! snapshot-stride round trip, the benchmarks and the tests.
//!
//! A Snapshot captures the complete mutable state of one monitor instance —
//! recognizer automata, Figure-6 stats, verdict, violation, timing
//! registers — as a flat sequence of 64-bit words.  A failure reason is a
//! spec::Reason, stored as code words (put_reason), so no monitor writes a
//! string; the string pool stays part of the format for state that has no
//! word encoding.  Writers append in a fixed order (Monitor::snapshot);
//! SnapshotReader replays the same order (Monitor::restore).  The contract
//! every implementation keeps, locked by tests/mon_snapshot_test.cpp:
//!
//!   restore(s) after snapshot(s) ≡ the state at snapshot time, bit for
//!   bit — continuing observation afterwards is indistinguishable from an
//!   uninterrupted run (verdict, violation, stats and space accounting).
//!
//! Ownership: the caller owns the Snapshot; one buffer may be reused across
//! any number of snapshot() calls (clear() keeps the word vector's and the
//! string slots' capacity, so a warmed buffer re-snapshots without heap
//! traffic).  A Snapshot written by one monitor may only be restored into a
//! monitor of the same kind stamped from the same plan — each monitor tags
//! its format and restore() rejects a foreign tag.
//! Thread-safety: a Snapshot is a plain value; concurrent readers are fine
//! once writing stops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "spec/reason.hpp"

namespace loom::mon {

class SnapshotReader;

/// Snapshot format version, stamped into the high half of every monitor's
/// tag word.  Bump on any layout change to a monitor's snapshot order; a
/// restore of a snapshot from a different version rejects with a clear
/// diagnostic instead of misreading the words.
constexpr std::uint32_t kSnapshotVersion = 3;

/// The tag word each monitor writes first: (version << 32) | kind, where
/// `kind` is the monitor's four-byte ASCII constant (e.g. "ANTC").
constexpr std::uint64_t snapshot_tag(std::uint32_t kind) {
  return (std::uint64_t{kSnapshotVersion} << 32) | kind;
}

constexpr std::uint32_t snapshot_tag_kind(std::uint64_t word) {
  return static_cast<std::uint32_t>(word);
}
constexpr std::uint32_t snapshot_tag_version(std::uint64_t word) {
  return static_cast<std::uint32_t>(word >> 32);
}

/// Restore-side tag validation: throws std::logic_error naming `who` with
/// a kind-mismatch diagnostic (foreign monitor kind) or a version
/// diagnostic (future or past format), so both failure modes read clearly
/// in test output and worker error frames.
void check_snapshot_tag(std::uint64_t word, std::uint32_t kind,
                        const char* who);

class Snapshot {
 public:
  /// Forgets the content, keeps every capacity (words and string slots):
  /// the reuse entry point for pooled snapshot buffers.
  void clear() {
    words_.clear();
    strings_used_ = 0;
  }

  bool empty() const { return words_.empty() && strings_used_ == 0; }
  std::size_t word_count() const { return words_.size(); }

  /// Raw views for comparing snapshots: a Snapshot is semantically the
  /// word sequence plus the string pool, so two are equal exactly when
  /// these agree.
  const std::vector<std::uint64_t>& words() const { return words_; }
  std::size_t string_count() const { return strings_used_; }
  const std::string& string_at(std::size_t i) const { return strings_[i]; }
  /// Overwrites one word in place (tests forge tag words with this).
  void set_word(std::size_t i, std::uint64_t v) { words_[i] = v; }

  void put_u64(std::uint64_t v) { words_.push_back(v); }
  void put_bool(bool b) { words_.push_back(b ? 1 : 0); }
  void put_time(sim::Time t) { words_.push_back(t.picoseconds()); }
  /// A reason as four words: the code with its first integer operand,
  /// the other two integer operands, and the two time operands.
  void put_reason(const spec::Reason& r);
  /// Strings land in a slot pool: a cleared buffer re-assigns into its old
  /// slots, reusing their capacity.
  void put_string(const std::string& s);
  /// Bit vector as a length word plus 64-bit packed payload (the ViaPSL
  /// armed/range-seen sets can be wide; one word per bit would not do).
  void put_bits(const std::vector<bool>& bits);

 private:
  friend class SnapshotReader;
  std::vector<std::uint64_t> words_;
  std::vector<std::string> strings_;
  std::size_t strings_used_ = 0;
};

/// Sequential reader over a Snapshot; reads must mirror the write order.
/// Reads past the end throw std::logic_error (always, Release included):
/// restoring a truncated, empty or foreign snapshot rejects instead of
/// reading out of bounds.
class SnapshotReader {
 public:
  explicit SnapshotReader(const Snapshot& snap) : snap_(&snap) {}

  /// Inline because every restore reads its words through here; the
  /// bounds check stays on in Release, only its throw is out of line.
  std::uint64_t u64() {
    if (word_ >= snap_->words_.size()) [[unlikely]] {
      read_past_end();
    }
    return snap_->words_[word_++];
  }
  bool boolean() { return u64() != 0; }
  sim::Time time() { return sim::Time::ps(u64()); }
  /// Restores a put_reason() value.
  spec::Reason reason();
  /// Assigns into `out` (capacity-reusing; never a fresh string).
  void string_into(std::string& out);
  /// Restores a put_bits() payload; resizes `out` only on a width change.
  void bits_into(std::vector<bool>& out);

  /// True when every word and string has been consumed — restore()
  /// implementations end on an exhausted reader or the formats drifted.
  bool exhausted() const;

 private:
  /// Throws the read-past-the-end std::logic_error.
  [[noreturn]] static void read_past_end();

  const Snapshot* snap_;
  std::size_t word_ = 0;
  std::size_t str_ = 0;
};

}  // namespace loom::mon
