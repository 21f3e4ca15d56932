//! Versioned binary wire format: the length-prefixed frame codec behind
//! cross-process campaign sharding.
//!
//! A frame is a fixed 16-byte header followed by the payload bytes:
//!
//!   offset 0   u32  magic          0x4D4F4F4C — the bytes "LOOM"
//!   offset 4   u8   version        kWireVersion (readers reject others)
//!   offset 5   u8   payload tag    wire::Payload (what the bytes mean)
//!   offset 6   u16  reserved       must be zero
//!   offset 8   u64  payload size   bytes that follow the header
//!   offset 16  ...  payload        primitives in little-endian order
//!
//! Primitives are fixed-width little-endian integers, IEEE doubles moved
//! bit-exact through u64 (the differential invariants compare doubles byte
//! for byte), strings as a u64 length plus raw bytes, and bit vectors as a
//! length word plus 64-bit packed payload (the mon::Snapshot convention).
//!
//! Decoding is hostile-input safe by contract (tests/wire_fuzz_test.cpp):
//! every read is bounds-checked, every length is validated against the
//! bytes actually present *before* any allocation sizes off it, and every
//! failure is a positioned diagnostic (byte offset + message) — truncation,
//! bit flips, oversized length prefixes and foreign tags reject cleanly,
//! never UB.  The ASan+UBSan CI leg holds the corpus to that.
//!
//! Ownership: Encoder and Decoder are plain values; the Encoder's buffer
//! and a Decoder's target buffers reuse their capacity across frames
//! (clear() forgets content, keeps capacity — the mon::Snapshot style).
//! Thread-safety: instances are single-thread; encoded bytes are immutable
//! values that may cross threads or processes freely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace loom::wire {

/// Format version stamped into every frame header.  Bump on any layout
/// change; readers reject frames from a different version with a
/// positioned diagnostic (never a misparse).  Version 2 extended the
/// CampaignOptions payload with the supervision knobs (timeout, retries,
/// allow_partial, fault position) and the CampaignResult payload with the
/// per-shard failure records of degraded runs.  Version 3 added the
/// lane-batched wave surface: the lane_width knob in CampaignOptions and
/// the lane_waves / lanes_filled / lane_capacity counters in
/// CampaignResult.  Version 4 removed that surface again, with the wave
/// engine it described.  Version 5 dropped six result-neutral bools from
/// CampaignOptions (use_compiled_plans, reuse_traces, batch_replay,
/// reuse_scratch, incremental_replay, supervised) with the second code
/// paths they selected.  Version 6 removed the Trace, Options and Snapshot
/// payload tags (1, 2 and 4), which no process sent; their numbers stay
/// unassigned, so a frame carrying one rejects as an unknown tag.
/// Version 7 made a worker's shard assignment a seed range (it was a unit
/// range), renamed CampaignOptions' shard_size to shard_seeds, and dropped
/// six counters from the CampaignResult payload (plans built, ViaPSL
/// encodings, instances stamped and reused, plan-cache hits and misses).
/// Version 8 removed the bytecode backend: backend byte 3 (Vm) no longer
/// decodes.
constexpr std::uint8_t kWireVersion = 8;

/// "LOOM" as a little-endian u32 (the file starts with the bytes L O O M).
constexpr std::uint32_t kMagic = 0x4D4F4F4Cu;

/// Hard ceiling on one frame's payload: an oversized length prefix is a
/// diagnostic, never a gigantic allocation.
constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 30;

constexpr std::size_t kFrameHeaderBytes = 16;

/// What a frame's payload bytes mean.
enum class Payload : std::uint8_t {
  Result = 3,         // abv::CampaignResult (wire/payload.hpp)
  WorkerRequest = 5,  // parent -> worker: alphabet, properties, shards
  WorkerPartial = 6,  // worker -> parent: one job's partial result
  WorkerDone = 7,     // worker -> parent: end of stream, summary count
  WorkerError = 8,    // worker -> parent: diagnostic before exiting
};

const char* to_string(Payload p);

/// A decode failure: the byte offset (into the buffer handed to the
/// Decoder) where the problem was detected, plus a human-readable message.
struct DecodeError {
  std::size_t offset = 0;
  std::string message;

  /// "wire: byte 12: truncated u64" — the positioned diagnostic form every
  /// decode error surfaces as.
  std::string to_string() const;
};

/// Appends primitives to a byte buffer in wire order.  clear() keeps the
/// buffer's capacity, so one Encoder serves any number of frames without
/// steady-state heap traffic.
class Encoder {
 public:
  void clear() { bytes_.clear(); }
  bool empty() const { return bytes_.empty(); }
  std::size_t size() const { return bytes_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_bool(bool b) { put_u8(b ? 1 : 0); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  /// Bit-exact double transport (no text round-trip loss).
  void put_f64(double v);
  void put_time(sim::Time t) { put_u64(t.picoseconds()); }
  /// u64 length + raw bytes.
  void put_string(std::string_view s);
  /// Length word + 64-bit packed payload (mon::Snapshot::put_bits layout).
  void put_bits(const std::vector<bool>& bits);

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Sequential reader over a payload byte range with sticky, positioned
/// error state: the first failure records (offset, message), and every
/// later read returns a zero value without touching memory.  Callers check
/// ok() once at the end (or wherever they need to bail early).
class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Decoder(const std::vector<std::uint8_t>& bytes)
      : Decoder(bytes.data(), bytes.size()) {}

  bool ok() const { return !failed_; }
  const DecodeError& error() const { return error_; }
  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return failed_ ? 0 : size_ - offset_; }
  /// True when every payload byte has been consumed (and nothing failed) —
  /// decode functions end on an exhausted decoder or the formats drifted.
  bool exhausted() const { return !failed_ && offset_ == size_; }

  /// Records a failure at the current offset (first failure wins).
  void fail(std::string message) { fail_at(offset_, std::move(message)); }
  void fail_at(std::size_t offset, std::string message);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  /// A u8 that must be 0 or 1 (anything else is a diagnostic, so a flipped
  /// bit cannot smuggle a vacuously-true flag through).
  bool boolean();
  double f64();
  sim::Time time() { return sim::Time::ps(u64()); }
  /// Assigns into `out` (capacity-reusing); validates the length against
  /// the bytes actually remaining before sizing anything.
  void string_into(std::string& out);
  /// Restores a put_bits() payload; validates before sizing `out`.
  void bits_into(std::vector<bool>& out);

  /// Validates a count prefix: at least `min_bytes_each * count` bytes must
  /// remain, so a corrupt count fails here instead of sizing a container.
  /// Returns 0 after recording the failure.
  std::uint64_t count(std::uint64_t min_bytes_each, const char* what);

 private:
  const std::uint8_t* take(std::size_t n, const char* what);

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t offset_ = 0;
  bool failed_ = false;
  DecodeError error_;
};

/// Appends one framed payload (header + the encoder's bytes) to `out`.
void write_frame(std::vector<std::uint8_t>& out, Payload tag,
                 const Encoder& payload);

/// A parsed frame view into the caller's buffer (no copy).
struct Frame {
  Payload tag = Payload::Result;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// A validated frame header (streaming readers parse this first, then read
/// exactly `length` payload bytes off the pipe).
struct FrameHeader {
  Payload tag = Payload::Result;
  std::uint64_t length = 0;
};

/// Validates the 16 header bytes alone: magic, version, tag, reserved
/// bytes and the length ceiling (kMaxFrameBytes) — everything except
/// whether the payload bytes are actually present.
bool parse_frame_header(const std::uint8_t* data, std::size_t size,
                        FrameHeader& header, DecodeError& err);

/// Parses one frame starting at `data`.  On success fills `frame` and
/// `consumed` and returns true; on any malformation (short header, bad
/// magic, foreign version, unknown tag, nonzero reserved bytes, oversized
/// or truncated length) records a positioned diagnostic in `err` and
/// returns false.  `data + size` may extend past the frame (streams).
bool parse_frame(const std::uint8_t* data, std::size_t size, Frame& frame,
                 std::size_t& consumed, DecodeError& err);

}  // namespace loom::wire
