#include "mon/snapshot.hpp"

#include <stdexcept>

namespace loom::mon {

void check_snapshot_tag(std::uint64_t word, std::uint32_t kind,
                        const char* who) {
  if (snapshot_tag_kind(word) != kind) {
    throw std::logic_error(std::string(who) +
                           ": snapshot of a different monitor kind");
  }
  if (snapshot_tag_version(word) != kSnapshotVersion) {
    throw std::logic_error(
        std::string(who) + ": snapshot format version " +
        std::to_string(snapshot_tag_version(word)) +
        ", this build reads version " + std::to_string(kSnapshotVersion));
  }
}

void Snapshot::put_reason(const spec::Reason& r) {
  put_u64(static_cast<std::uint64_t>(r.code) |
          std::uint64_t{r.ints[0]} << 32);
  put_u64(r.ints[1] | std::uint64_t{r.ints[2]} << 32);
  put_time(r.times[0]);
  put_time(r.times[1]);
}

void Snapshot::put_string(const std::string& s) {
  if (strings_used_ == strings_.size()) {
    strings_.emplace_back(s);
  } else {
    strings_[strings_used_] = s;  // slot reuse: capacity survives clear()
  }
  ++strings_used_;
}

void Snapshot::put_bits(const std::vector<bool>& bits) {
  put_u64(bits.size());
  std::uint64_t word = 0;
  std::size_t filled = 0;
  for (const bool b : bits) {
    if (b) word |= std::uint64_t{1} << filled;
    if (++filled == 64) {
      put_u64(word);
      word = 0;
      filled = 0;
    }
  }
  if (filled != 0) put_u64(word);
}

// Always-on bounds check of u64() (one compare per word, negligible next
// to the monitor stepping it replaces): a truncated, empty or foreign
// snapshot must reject with the documented logic_error, not read out of
// bounds — in Release builds just as in Debug.
void SnapshotReader::read_past_end() {
  throw std::logic_error(
      "SnapshotReader: read past the end of a snapshot (truncated or "
      "foreign format)");
}

spec::Reason SnapshotReader::reason() {
  spec::Reason r;
  const std::uint64_t head = u64();
  const std::uint64_t rest = u64();
  r.code = static_cast<spec::ReasonCode>(static_cast<std::uint8_t>(head));
  r.ints = {static_cast<std::uint32_t>(head >> 32),
            static_cast<std::uint32_t>(rest),
            static_cast<std::uint32_t>(rest >> 32)};
  r.times = {time(), time()};
  return r;
}

void SnapshotReader::string_into(std::string& out) {
  if (str_ >= snap_->strings_used_) {
    throw std::logic_error(
        "SnapshotReader: read past the snapshot's string pool (truncated "
        "or foreign format)");
  }
  out = snap_->strings_[str_++];
}

void SnapshotReader::bits_into(std::vector<bool>& out) {
  const std::size_t n = static_cast<std::size_t>(u64());
  // Validate the payload before sizing `out`: a garbage length word from a
  // foreign snapshot must throw, not trigger a huge allocation.
  const std::size_t words_needed = n / 64 + (n % 64 != 0 ? 1 : 0);
  if (snap_->words_.size() - word_ < words_needed) {
    throw std::logic_error(
        "SnapshotReader: truncated bit vector in snapshot");
  }
  if (out.size() != n) out.assign(n, false);
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bit = i % 64;
    if (bit == 0) word = u64();
    out[i] = (word >> bit) & 1;
  }
}

bool SnapshotReader::exhausted() const {
  return word_ == snap_->words_.size() && str_ == snap_->strings_used_;
}

}  // namespace loom::mon
