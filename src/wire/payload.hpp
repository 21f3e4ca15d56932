//! Payload codecs: the engine types that cross the wire, written and read
//! in a fixed field order over the wire::Encoder/Decoder primitives.
//!
//! The campaign result (Payload::Result, which every worker partial
//! carries) plus the worker-protocol payloads behind cross-process
//! campaign sharding; the campaign options travel inside the worker
//! request.  Every decode_* validates as it reads — counts against
//! remaining bytes before sizing containers, enum bytes against their
//! range — and reports failures through the Decoder's positioned
//! diagnostic, so a corrupt or hostile payload rejects cleanly
//! (tests/wire_fuzz_test.cpp holds the codecs to that under ASan+UBSan).
//!
//! Identity contract (tests/wire_roundtrip_test.cpp): for every payload
//! type, decode(encode(x)) compares equal to x field for field — doubles
//! bit for bit, because the sixth differential invariant (in-process ≡
//! cross-process campaigns) rides on these codecs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "spec/alphabet.hpp"
#include "wire/wire.hpp"

namespace loom::wire {

/// abv::CampaignResult (Payload::Result): every counter, the five
/// MutationStats, both coverage ratios (bit-exact f64), MonitorStats,
/// CompileStats, the engine diagnostics (retry count included) and the
/// per-shard failure records of a degraded run.
void encode_result(Encoder& e, const abv::CampaignResult& result);
bool decode_result(Decoder& d, abv::CampaignResult& result);

// ---------------------------------------------------------------------------
// Worker protocol (parent campaign process <-> shard worker process).
//
// One request frame travels parent -> worker; the worker answers with one
// WorkerPartial frame per assigned shard followed by a WorkerDone frame
// (or a WorkerError frame naming the failure before a nonzero exit).  The
// parent buffers partials and merges only after a clean Done — a worker
// that dies or corrupts its stream contributes nothing.

/// One shard assignment: `shard` is the global shard index in the parent's
/// layout (partials slot back into the same merge order the in-process
/// engine uses), `job` the property index, [unit_begin, unit_end) the
/// (seed × slot) unit range.
struct WorkerShardSpec {
  std::uint64_t shard = 0;
  std::uint64_t job = 0;
  std::uint64_t unit_begin = 0;
  std::uint64_t unit_end = 0;
};

/// Parent -> worker: everything a fresh process needs to reproduce the
/// parent's interning and plans bit for bit — the alphabet's names in id
/// order (with directions), each property's normalized text
/// (spec::to_string, re-parsed by the worker), the options block and the
/// assigned shards.  The options block round-trips every field except the
/// plan_cache pointer (decoded as nullptr), workers/worker_command/
/// worker_fault included — the parent zeroes those itself before handing
/// options to a worker, so a worker never recursively spawns workers.
struct WorkerRequestData {
  std::vector<std::string> names;
  std::vector<std::uint8_t> directions;  // spec::Direction per name
  std::vector<std::string> properties;
  abv::CampaignOptions options;
  std::vector<WorkerShardSpec> shards;
};

void encode_worker_request(Encoder& e, const WorkerRequestData& req);
bool decode_worker_request(Decoder& d, WorkerRequestData& req);

/// Worker -> parent: one shard's outcome — the partial CampaignResult, the
/// names the shard observed (bit per alphabet id; the parent replays them
/// through AlphabetCoverage::record) and, for Drct-backed properties, the
/// recognizer coverage rows.
struct WorkerPartialData {
  std::uint64_t shard = 0;
  std::uint64_t job = 0;
  abv::CampaignResult partial;
  std::vector<bool> alphabet_seen;
  bool has_recognizer = false;
  std::vector<std::vector<abv::RecognizerCoverage::RangeCov>> recognizer_rows;
};

void encode_worker_partial(Encoder& e, const WorkerPartialData& partial);
bool decode_worker_partial(Decoder& d, WorkerPartialData& partial);

/// Worker -> parent trailer: the number of partials that preceded it (the
/// parent cross-checks against its assignment before merging anything).
void encode_worker_done(Encoder& e, std::uint64_t partials);
bool decode_worker_done(Decoder& d, std::uint64_t& partials);

/// Worker -> parent: a diagnostic message sent before a nonzero exit.
void encode_worker_error(Encoder& e, const std::string& message);
bool decode_worker_error(Decoder& d, std::string& message);

}  // namespace loom::wire
