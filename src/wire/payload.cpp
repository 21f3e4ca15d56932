#include "wire/payload.hpp"

namespace loom::wire {
namespace {

// Shared sub-codecs.  Each encode_/decode_ pair below must mirror field
// order exactly; the round-trip grid (wire_roundtrip_test) catches drift.

void put_size(Encoder& e, std::size_t v) {
  e.put_u64(static_cast<std::uint64_t>(v));
}

std::size_t get_size(Decoder& d) { return static_cast<std::size_t>(d.u64()); }

void encode_mutation_stats(Encoder& e, const abv::MutationStats& m) {
  put_size(e, m.applied);
  put_size(e, m.invalid);
  put_size(e, m.detected);
  put_size(e, m.missed);
}

void decode_mutation_stats(Decoder& d, abv::MutationStats& m) {
  m.applied = get_size(d);
  m.invalid = get_size(d);
  m.detected = get_size(d);
  m.missed = get_size(d);
}

void encode_backend(Encoder& e, mon::Backend b) {
  e.put_u8(static_cast<std::uint8_t>(b));
}

mon::Backend decode_backend(Decoder& d) {
  const std::size_t at = d.offset();
  const std::uint8_t b = d.u8();
  if (d.ok() && b > static_cast<std::uint8_t>(mon::Backend::ViaPSL)) {
    d.fail_at(at, "bad backend byte " + std::to_string(b) +
                      " (want 0..2: Auto/Drct/ViaPSL)");
    return mon::Backend::Auto;
  }
  return static_cast<mon::Backend>(b);
}

void encode_monitor_stats(Encoder& e, const mon::MonitorStats& s) {
  e.put_u64(s.ops);
  e.put_u64(s.events);
  e.put_u64(s.max_ops_per_event);
}

void decode_monitor_stats(Decoder& d, mon::MonitorStats& s) {
  s.ops = d.u64();
  s.events = d.u64();
  s.max_ops_per_event = d.u64();
}

void encode_compile_stats(Encoder& e, const abv::CompileStats& s) {
  encode_backend(e, s.backend_requested);
  encode_backend(e, s.backend_chosen);
}

void decode_compile_stats(Decoder& d, abv::CompileStats& s) {
  s.backend_requested = decode_backend(d);
  s.backend_chosen = decode_backend(d);
}

void encode_range_cov(Encoder& e, const abv::RecognizerCoverage::RangeCov& c) {
  e.put_u32(c.name);
  e.put_u8(c.state_mask);
  e.put_u32(c.max_count);
  e.put_u32(c.lo);
  e.put_u32(c.hi);
}

void decode_range_cov(Decoder& d, abv::RecognizerCoverage::RangeCov& c) {
  c.name = d.u32();
  c.state_mask = d.u8();
  c.max_count = d.u32();
  c.lo = d.u32();
  c.hi = d.u32();
}

// The options block travels only inside a WorkerRequest.
void encode_options(Encoder& e, const abv::CampaignOptions& o) {
  e.put_u64(o.first_seed);
  put_size(e, o.seeds);
  put_size(e, o.stimuli.rounds);
  e.put_u32(o.stimuli.noise_permille);
  put_size(e, o.stimuli.noise_names);
  e.put_u64(o.stimuli.max_gap_ns);
  put_size(e, o.mutants_per_kind);
  e.put_bool(o.check_viapsl);
  encode_backend(e, o.backend);
  put_size(e, o.threads);
  put_size(e, o.shard_seeds);
  put_size(e, o.checkpoint_stride);
  put_size(e, o.workers);
  e.put_u64(o.worker_command.size());
  for (const auto& arg : o.worker_command) e.put_string(arg);
  e.put_u8(static_cast<std::uint8_t>(o.worker_fault));
  put_size(e, o.worker_fault_at);
  put_size(e, o.worker_timeout_ms);
  put_size(e, o.worker_retries);
  e.put_bool(o.allow_partial);
}

bool decode_options(Decoder& d, abv::CampaignOptions& o) {
  o.first_seed = d.u64();
  o.seeds = get_size(d);
  o.stimuli.rounds = get_size(d);
  o.stimuli.noise_permille = d.u32();
  o.stimuli.noise_names = get_size(d);
  o.stimuli.max_gap_ns = d.u64();
  o.mutants_per_kind = get_size(d);
  o.check_viapsl = d.boolean();
  o.backend = decode_backend(d);
  o.threads = get_size(d);
  o.shard_seeds = get_size(d);
  o.checkpoint_stride = get_size(d);
  o.workers = get_size(d);
  const std::uint64_t args = d.count(8, "worker command");
  o.worker_command.clear();
  for (std::uint64_t i = 0; i < args && d.ok(); ++i) {
    o.worker_command.emplace_back();
    d.string_into(o.worker_command.back());
  }
  const std::size_t at = d.offset();
  const std::uint8_t fault = d.u8();
  if (d.ok() &&
      fault > static_cast<std::uint8_t>(abv::WorkerFault::LingerAfterDone)) {
    d.fail_at(at, "bad worker-fault byte " + std::to_string(fault));
  }
  if (d.ok()) o.worker_fault = static_cast<abv::WorkerFault>(fault);
  o.worker_fault_at = get_size(d);
  o.worker_timeout_ms = get_size(d);
  o.worker_retries = get_size(d);
  o.allow_partial = d.boolean();
  return d.ok();
}

}  // namespace

void encode_result(Encoder& e, const abv::CampaignResult& r) {
  put_size(e, r.traces);
  put_size(e, r.events);
  put_size(e, r.valid_accepted);
  put_size(e, r.oracle_disagreements);
  put_size(e, r.viapsl_false_alarms);
  for (const auto& m : r.mutation) encode_mutation_stats(e, m);
  e.put_f64(r.alphabet_coverage);
  e.put_f64(r.recognizer_state_coverage);
  encode_monitor_stats(e, r.monitor_stats);
  encode_compile_stats(e, r.compile_stats);
  put_size(e, r.trace_cache_hits);
  put_size(e, r.trace_cache_misses);
  put_size(e, r.checkpoint_hits);
  put_size(e, r.events_skipped);
  put_size(e, r.worker_retries);
  e.put_u64(r.shard_failures.size());
  for (const auto& f : r.shard_failures) {
    put_size(e, f.worker);
    put_size(e, f.shard);
    put_size(e, f.unit_begin);
    put_size(e, f.unit_end);
    e.put_string(f.diagnostic);
  }
}

bool decode_result(Decoder& d, abv::CampaignResult& r) {
  r = abv::CampaignResult{};
  r.traces = get_size(d);
  r.events = get_size(d);
  r.valid_accepted = get_size(d);
  r.oracle_disagreements = get_size(d);
  r.viapsl_false_alarms = get_size(d);
  for (auto& m : r.mutation) decode_mutation_stats(d, m);
  r.alphabet_coverage = d.f64();
  r.recognizer_state_coverage = d.f64();
  decode_monitor_stats(d, r.monitor_stats);
  decode_compile_stats(d, r.compile_stats);
  r.trace_cache_hits = get_size(d);
  r.trace_cache_misses = get_size(d);
  r.checkpoint_hits = get_size(d);
  r.events_skipped = get_size(d);
  r.worker_retries = get_size(d);
  // A failure record is at least four u64 fields plus the diagnostic's
  // 8-byte length word.
  const std::uint64_t failures = d.count(40, "shard failure list");
  r.shard_failures.clear();
  for (std::uint64_t i = 0; i < failures && d.ok(); ++i) {
    abv::CampaignResult::ShardFailure f;
    f.worker = get_size(d);
    f.shard = get_size(d);
    f.unit_begin = get_size(d);
    f.unit_end = get_size(d);
    d.string_into(f.diagnostic);
    if (d.ok()) r.shard_failures.push_back(std::move(f));
  }
  return d.ok();
}

void encode_worker_request(Encoder& e, const WorkerRequestData& req) {
  e.put_u64(req.names.size());
  for (std::size_t i = 0; i < req.names.size(); ++i) {
    e.put_string(req.names[i]);
    e.put_u8(i < req.directions.size() ? req.directions[i] : 2);
  }
  e.put_u64(req.properties.size());
  for (const auto& p : req.properties) e.put_string(p);
  encode_options(e, req.options);
  e.put_u64(req.shards.size());
  for (const auto& s : req.shards) {
    e.put_u64(s.shard);
    e.put_u64(s.job);
    e.put_u64(s.seed_begin);
    e.put_u64(s.seed_end);
  }
}

bool decode_worker_request(Decoder& d, WorkerRequestData& req) {
  const std::uint64_t names = d.count(9, "alphabet name table");
  req.names.clear();
  req.directions.clear();
  for (std::uint64_t i = 0; i < names && d.ok(); ++i) {
    req.names.emplace_back();
    d.string_into(req.names.back());
    const std::size_t at = d.offset();
    const std::uint8_t dir = d.u8();
    if (d.ok() && dir > 2) {
      d.fail_at(at, "bad direction byte " + std::to_string(dir));
      break;
    }
    req.directions.push_back(dir);
  }
  const std::uint64_t props = d.count(8, "property list");
  req.properties.clear();
  for (std::uint64_t i = 0; i < props && d.ok(); ++i) {
    req.properties.emplace_back();
    d.string_into(req.properties.back());
  }
  if (!decode_options(d, req.options)) return false;
  const std::uint64_t shards = d.count(32, "shard list");
  req.shards.clear();
  req.shards.reserve(static_cast<std::size_t>(shards));
  for (std::uint64_t i = 0; i < shards && d.ok(); ++i) {
    WorkerShardSpec s;
    s.shard = d.u64();
    s.job = d.u64();
    s.seed_begin = d.u64();
    s.seed_end = d.u64();
    if (d.ok()) req.shards.push_back(s);
  }
  return d.ok();
}

void encode_worker_partial(Encoder& e, const WorkerPartialData& p) {
  e.put_u64(p.shard);
  e.put_u64(p.job);
  encode_result(e, p.partial);
  e.put_bits(p.alphabet_seen);
  e.put_bool(p.has_recognizer);
  if (p.has_recognizer) {
    e.put_u64(p.recognizer_rows.size());
    for (const auto& frag : p.recognizer_rows) {
      e.put_u64(frag.size());
      for (const auto& row : frag) encode_range_cov(e, row);
    }
  }
}

bool decode_worker_partial(Decoder& d, WorkerPartialData& p) {
  p.shard = d.u64();
  p.job = d.u64();
  if (!decode_result(d, p.partial)) return false;
  d.bits_into(p.alphabet_seen);
  p.has_recognizer = d.boolean();
  p.recognizer_rows.clear();
  if (d.ok() && p.has_recognizer) {
    const std::uint64_t frags = d.count(8, "recognizer fragment list");
    p.recognizer_rows.reserve(static_cast<std::size_t>(frags));
    for (std::uint64_t f = 0; f < frags && d.ok(); ++f) {
      const std::uint64_t rows = d.count(17, "recognizer row list");
      std::vector<abv::RecognizerCoverage::RangeCov> frag;
      frag.reserve(static_cast<std::size_t>(rows));
      for (std::uint64_t r = 0; r < rows && d.ok(); ++r) {
        abv::RecognizerCoverage::RangeCov row;
        decode_range_cov(d, row);
        if (d.ok()) frag.push_back(row);
      }
      if (d.ok()) p.recognizer_rows.push_back(std::move(frag));
    }
  }
  return d.ok();
}

void encode_worker_done(Encoder& e, std::uint64_t partials) {
  e.put_u64(partials);
}

bool decode_worker_done(Decoder& d, std::uint64_t& partials) {
  partials = d.u64();
  return d.ok();
}

void encode_worker_error(Encoder& e, const std::string& message) {
  e.put_string(message);
}

bool decode_worker_error(Decoder& d, std::string& message) {
  d.string_into(message);
  return d.ok();
}

}  // namespace loom::wire
