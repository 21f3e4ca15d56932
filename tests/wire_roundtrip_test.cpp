// The wire codec's identity half: decode(encode(x)) ≡ x, field for field
// and double-bit for double-bit, for every payload type — on handcrafted
// values, on seeded-RNG fuzzed values, and on real campaign artifacts.
// This is the contract the sixth engine invariant (in-process ≡
// cross-process campaigns) rides on; the rejection half lives in
// wire_fuzz_test.cpp.  Also locks the buffer-reuse discipline: one Encoder
// and one target buffer serve many frames without cross-talk.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "mon/monitors.hpp"
#include "mon/snapshot.hpp"
#include "support/rng.hpp"
#include "testing.hpp"
#include "wire/payload.hpp"
#include "wire/wire.hpp"

namespace loom::wire {
namespace {

spec::Trace fuzz_trace(spec::Alphabet& ab, support::Rng& rng,
                       std::size_t events) {
  // A handful of names, some shared, some per-trace; strictly increasing
  // times so the trace is also a plausible monitor input.
  const char* pool[] = {"a", "b", "start", "irq", "set_imgAddr", "read_img"};
  spec::Trace t;
  std::uint64_t ps = 0;
  for (std::size_t i = 0; i < events; ++i) {
    ps += 1 + rng.below(5000);
    t.push_back({ab.name(pool[rng.below(6)]), sim::Time::ps(ps)});
  }
  return t;
}

abv::CampaignOptions fuzz_options(support::Rng& rng) {
  abv::CampaignOptions o;
  o.first_seed = rng.next();
  o.seeds = rng.below(100);
  o.stimuli.rounds = rng.below(10);
  o.stimuli.noise_permille = static_cast<std::uint32_t>(rng.below(1000));
  o.stimuli.noise_names = rng.below(5);
  o.stimuli.max_gap_ns = rng.below(100);
  o.mutants_per_kind = rng.below(50);
  o.check_viapsl = rng.below(2) != 0;
  o.backend = static_cast<mon::Backend>(rng.below(4));
  o.threads = rng.below(16);
  o.shard_size = rng.below(64);
  o.checkpoint_stride = rng.below(100);
  o.workers = rng.below(8);
  for (std::uint64_t i = rng.below(4); i > 0; --i) {
    o.worker_command.push_back("arg" + std::to_string(i));
  }
  o.worker_fault = static_cast<abv::WorkerFault>(
      rng.below(static_cast<std::uint64_t>(abv::WorkerFault::LingerAfterDone) + 1));
  o.worker_fault_at = rng.below(16);
  o.worker_timeout_ms = rng.below(10000);
  o.worker_retries = rng.below(8);
  o.allow_partial = rng.below(2) != 0;
  return o;
}

abv::CampaignResult fuzz_result(support::Rng& rng) {
  abv::CampaignResult r;
  r.traces = rng.below(1000);
  r.events = rng.below(100000);
  r.valid_accepted = rng.below(1000);
  r.oracle_disagreements = rng.below(10);
  r.viapsl_false_alarms = rng.below(10);
  for (auto& m : r.mutation) {
    m.applied = rng.below(500);
    m.invalid = rng.below(500);
    m.detected = rng.below(500);
    m.missed = rng.below(5);
  }
  r.alphabet_coverage = rng.uniform01();
  r.recognizer_state_coverage = rng.uniform01();
  r.monitor_stats.ops = rng.next();
  r.monitor_stats.events = rng.below(1u << 20);
  r.monitor_stats.max_ops_per_event = rng.below(1000);
  r.compile_stats.plans_built = rng.below(10);
  r.compile_stats.viapsl_encodings = rng.below(10);
  r.compile_stats.instances_stamped = rng.below(10000);
  r.compile_stats.instance_reuses = rng.below(10000);
  r.compile_stats.plan_cache_hits = rng.below(100);
  r.compile_stats.plan_cache_misses = rng.below(100);
  r.compile_stats.backend_requested = static_cast<mon::Backend>(rng.below(4));
  r.compile_stats.backend_chosen = static_cast<mon::Backend>(rng.below(4));
  r.trace_cache_hits = rng.below(1000);
  r.trace_cache_misses = rng.below(1000);
  r.checkpoint_hits = rng.below(1000);
  r.events_skipped = rng.below(100000);
  r.worker_retries = rng.below(10);
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    abv::CampaignResult::ShardFailure f;
    f.worker = rng.below(8);
    f.shard = rng.below(64);
    f.unit_begin = rng.below(100);
    f.unit_end = f.unit_begin + rng.below(100);
    f.diagnostic = "worker " + std::to_string(f.worker) + ": lost";
    r.shard_failures.push_back(std::move(f));
  }
  return r;
}

void expect_options_equal(const abv::CampaignOptions& a,
                          const abv::CampaignOptions& b, const char* what) {
  EXPECT_EQ(a.first_seed, b.first_seed) << what;
  EXPECT_EQ(a.seeds, b.seeds) << what;
  EXPECT_EQ(a.stimuli.rounds, b.stimuli.rounds) << what;
  EXPECT_EQ(a.stimuli.noise_permille, b.stimuli.noise_permille) << what;
  EXPECT_EQ(a.stimuli.noise_names, b.stimuli.noise_names) << what;
  EXPECT_EQ(a.stimuli.max_gap_ns, b.stimuli.max_gap_ns) << what;
  EXPECT_EQ(a.mutants_per_kind, b.mutants_per_kind) << what;
  EXPECT_EQ(a.check_viapsl, b.check_viapsl) << what;
  EXPECT_EQ(a.backend, b.backend) << what;
  EXPECT_EQ(a.threads, b.threads) << what;
  EXPECT_EQ(a.shard_size, b.shard_size) << what;
  EXPECT_EQ(a.checkpoint_stride, b.checkpoint_stride) << what;
  EXPECT_EQ(a.workers, b.workers) << what;
  EXPECT_EQ(a.worker_command, b.worker_command) << what;
  EXPECT_EQ(a.worker_fault, b.worker_fault) << what;
  EXPECT_EQ(a.worker_fault_at, b.worker_fault_at) << what;
  EXPECT_EQ(a.worker_timeout_ms, b.worker_timeout_ms) << what;
  EXPECT_EQ(a.worker_retries, b.worker_retries) << what;
  EXPECT_EQ(a.allow_partial, b.allow_partial) << what;
}

void expect_results_bitwise_equal(const abv::CampaignResult& a,
                                  const abv::CampaignResult& b,
                                  const char* what) {
  EXPECT_TRUE(loom::testing::results_identical(a, b)) << what;
  // results_identical deliberately skips the engine diagnostics; the wire
  // must not.  Doubles compare as bits, not values: the invariant grids
  // compare report bytes, so a codec that "only" loses the last ulp of a
  // coverage ratio is already broken.
  EXPECT_EQ(a.trace_cache_hits, b.trace_cache_hits) << what;
  EXPECT_EQ(a.trace_cache_misses, b.trace_cache_misses) << what;
  EXPECT_EQ(a.checkpoint_hits, b.checkpoint_hits) << what;
  EXPECT_EQ(a.events_skipped, b.events_skipped) << what;
  EXPECT_EQ(a.compile_stats.plans_built, b.compile_stats.plans_built) << what;
  EXPECT_EQ(a.compile_stats.viapsl_encodings, b.compile_stats.viapsl_encodings)
      << what;
  EXPECT_EQ(a.compile_stats.instances_stamped,
            b.compile_stats.instances_stamped)
      << what;
  EXPECT_EQ(a.compile_stats.instance_reuses, b.compile_stats.instance_reuses)
      << what;
  EXPECT_EQ(a.compile_stats.plan_cache_hits, b.compile_stats.plan_cache_hits)
      << what;
  EXPECT_EQ(a.compile_stats.plan_cache_misses,
            b.compile_stats.plan_cache_misses)
      << what;
  std::uint64_t abits, bbits;
  std::memcpy(&abits, &a.alphabet_coverage, 8);
  std::memcpy(&bbits, &b.alphabet_coverage, 8);
  EXPECT_EQ(abits, bbits) << what << " (alphabet_coverage bits)";
  std::memcpy(&abits, &a.recognizer_state_coverage, 8);
  std::memcpy(&bbits, &b.recognizer_state_coverage, 8);
  EXPECT_EQ(abits, bbits) << what << " (recognizer_state_coverage bits)";
  EXPECT_EQ(a.worker_retries, b.worker_retries) << what;
  ASSERT_EQ(a.shard_failures.size(), b.shard_failures.size()) << what;
  for (std::size_t i = 0; i < a.shard_failures.size(); ++i) {
    EXPECT_EQ(a.shard_failures[i].worker, b.shard_failures[i].worker) << what;
    EXPECT_EQ(a.shard_failures[i].shard, b.shard_failures[i].shard) << what;
    EXPECT_EQ(a.shard_failures[i].unit_begin, b.shard_failures[i].unit_begin)
        << what;
    EXPECT_EQ(a.shard_failures[i].unit_end, b.shard_failures[i].unit_end)
        << what;
    EXPECT_EQ(a.shard_failures[i].diagnostic, b.shard_failures[i].diagnostic)
        << what;
  }
}

// Frames a payload and parses it back, asserting the frame layer is
// transparent; returns the parsed payload view.
void frame_and_parse(const Encoder& enc, Payload tag,
                     std::vector<std::uint8_t>& bytes, Frame& frame) {
  bytes.clear();
  write_frame(bytes, tag, enc);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + enc.size());
  std::size_t consumed = 0;
  DecodeError err;
  ASSERT_TRUE(parse_frame(bytes.data(), bytes.size(), frame, consumed, err))
      << err.to_string();
  ASSERT_EQ(consumed, bytes.size());
  ASSERT_EQ(frame.tag, tag);
  ASSERT_EQ(frame.size, enc.size());
}

TEST(WireRoundTrip, PrimitivesSurviveInOrder) {
  Encoder e;
  e.put_u8(0xAB);
  e.put_bool(true);
  e.put_bool(false);
  e.put_u32(0xDEADBEEFu);
  e.put_u64(0x0123456789ABCDEFull);
  e.put_f64(0.1);  // not exactly representable: must survive bit-exact
  e.put_f64(-0.0);
  e.put_time(sim::Time::ps(123456789));
  e.put_string("hello");
  e.put_string("");
  e.put_bits({true, false, true, true});
  std::vector<bool> wide(130, false);
  wide[0] = wide[64] = wide[129] = true;
  e.put_bits(wide);

  Decoder d(e.bytes());
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_TRUE(d.boolean());
  EXPECT_FALSE(d.boolean());
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(d.f64(), 0.1);
  const double neg_zero = d.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(d.time(), sim::Time::ps(123456789));
  std::string s;
  d.string_into(s);
  EXPECT_EQ(s, "hello");
  d.string_into(s);
  EXPECT_EQ(s, "");
  std::vector<bool> bits;
  d.bits_into(bits);
  EXPECT_EQ(bits, (std::vector<bool>{true, false, true, true}));
  d.bits_into(bits);
  EXPECT_EQ(bits, wide);
  EXPECT_TRUE(d.exhausted()) << "remaining=" << d.remaining();
}

TEST(WireRoundTrip, TracesSurviveFuzzedAndFramed) {
  std::vector<std::uint8_t> bytes;
  Encoder enc;
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    support::Rng rng = support::Rng::stream(0x51DE + trial, 17);
    spec::Alphabet ab;
    const spec::Trace t = fuzz_trace(ab, rng, rng.below(200));
    enc.clear();  // one encoder serves every trial
    encode_trace(enc, t, ab);
    Frame frame;
    frame_and_parse(enc, Payload::Trace, bytes, frame);

    // Decode into a different alphabet: the stream must be self-contained.
    spec::Alphabet ab2;
    spec::Trace back;
    Decoder d(frame.data, frame.size);
    ASSERT_TRUE(decode_trace(d, back, ab2)) << d.error().to_string();
    EXPECT_TRUE(d.exhausted());
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_EQ(ab2.text(back[i].name), ab.text(t[i].name)) << i;
      EXPECT_EQ(back[i].time, t[i].time) << i;
    }
  }
}

TEST(WireRoundTrip, OptionsSurviveFuzzed) {
  Encoder enc;
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    support::Rng rng = support::Rng::stream(0x0F75 + trial, 3);
    const abv::CampaignOptions o = fuzz_options(rng);
    enc.clear();
    encode_options(enc, o);
    abv::CampaignOptions back;
    Decoder d(enc.bytes());
    ASSERT_TRUE(decode_options(d, back)) << d.error().to_string();
    EXPECT_TRUE(d.exhausted());
    const std::string what = "trial " + std::to_string(trial);
    expect_options_equal(back, o, what.c_str());
    // Borrowed pointers never cross the wire.
    EXPECT_EQ(back.plan_cache, nullptr);
  }
}

TEST(WireRoundTrip, ResultsSurviveFuzzed) {
  Encoder enc;
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    support::Rng rng = support::Rng::stream(0x4E54 + trial, 5);
    const abv::CampaignResult r = fuzz_result(rng);
    enc.clear();
    encode_result(enc, r);
    abv::CampaignResult back;
    Decoder d(enc.bytes());
    ASSERT_TRUE(decode_result(d, back)) << d.error().to_string();
    EXPECT_TRUE(d.exhausted());
    const std::string what = "trial " + std::to_string(trial);
    expect_results_bitwise_equal(back, r, what.c_str());
  }
}

TEST(WireRoundTrip, ARealCampaignResultSurvivesWithIdenticalReport) {
  // Not just fuzzed field soup: a result the engine actually produced,
  // compared through the same report-bytes yardstick the invariant grids
  // use.
  spec::Alphabet ab;
  auto p = loom::testing::parse(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab);
  abv::CampaignOptions opt;
  opt.seeds = 3;
  opt.stimuli.noise_permille = 50;
  opt.mutants_per_kind = 4;
  const abv::CampaignResult r = abv::run_campaign(p, ab, opt);

  Encoder enc;
  encode_result(enc, r);
  abv::CampaignResult back;
  Decoder d(enc.bytes());
  ASSERT_TRUE(decode_result(d, back)) << d.error().to_string();
  EXPECT_TRUE(d.exhausted());
  expect_results_bitwise_equal(back, r, "real campaign");
  EXPECT_EQ(back.report(ab), r.report(ab));
  EXPECT_EQ(back.report(ab, true), r.report(ab, true));
}

TEST(WireRoundTrip, MonitorSnapshotsSurviveAndRestore) {
  // Snapshot a monitor mid-trace, push the snapshot through the wire, and
  // restore a fresh instance from the decoded copy: the wire must be as
  // invisible as the in-memory snapshot path mon_snapshot_test locks.
  spec::Alphabet ab;
  auto p = loom::testing::parse("(({a, b}, &) < c << i, true)", ab);
  const mon::CompiledProperty compiled =
      mon::CompiledProperty::compile(p, ab, {});
  auto source = compiled.instantiate();
  auto restored = compiled.instantiate();
  support::Rng rng = support::Rng::stream(0xABBA, 9);
  spec::Trace t = fuzz_trace(ab, rng, 40);

  std::vector<std::uint8_t> bytes;
  Encoder enc;
  mon::Snapshot snap;
  mon::Snapshot decoded;
  for (std::size_t cut = 0; cut < t.size(); cut += 7) {
    for (std::size_t i = 0; i < cut; ++i) {
      source->observe(t[i].name, t[i].time);
    }
    source->snapshot(snap);  // buffer reuse across cuts on both sides
    enc.clear();
    encode_snapshot(enc, snap);
    Frame frame;
    frame_and_parse(enc, Payload::Snapshot, bytes, frame);
    Decoder d(frame.data, frame.size);
    ASSERT_TRUE(decode_snapshot(d, decoded)) << d.error().to_string();
    EXPECT_TRUE(d.exhausted());
    ASSERT_EQ(decoded.word_count(), snap.word_count());
    restored->restore(decoded);
    // The restored monitor continues exactly like the original.
    for (std::size_t i = cut; i < t.size(); ++i) {
      source->observe(t[i].name, t[i].time);
      restored->observe(t[i].name, t[i].time);
    }
    EXPECT_EQ(restored->verdict(), source->verdict()) << "cut=" << cut;
    EXPECT_EQ(restored->stats().ops, source->stats().ops) << "cut=" << cut;
    source->reset();
  }
}

TEST(WireRoundTrip, WorkerProtocolPayloadsSurvive) {
  Encoder enc;
  for (std::uint64_t trial = 0; trial < 30; ++trial) {
    support::Rng rng = support::Rng::stream(0x3075 + trial, 7);
    WorkerRequestData req;
    for (std::uint64_t i = rng.below(10); i > 0; --i) {
      req.names.push_back("name" + std::to_string(i));
      req.directions.push_back(static_cast<std::uint8_t>(rng.below(3)));
    }
    for (std::uint64_t i = rng.below(4); i > 0; --i) {
      req.properties.push_back("(n" + std::to_string(i) + " << i, true)");
    }
    req.options = fuzz_options(rng);
    for (std::uint64_t i = rng.below(6); i > 0; --i) {
      req.shards.push_back({rng.below(100), rng.below(4), rng.below(24),
                            rng.below(24)});
    }
    enc.clear();
    encode_worker_request(enc, req);
    WorkerRequestData back;
    Decoder d(enc.bytes());
    ASSERT_TRUE(decode_worker_request(d, back)) << d.error().to_string();
    EXPECT_TRUE(d.exhausted());
    EXPECT_EQ(back.names, req.names);
    EXPECT_EQ(back.directions, req.directions);
    EXPECT_EQ(back.properties, req.properties);
    const std::string what = "trial " + std::to_string(trial);
    expect_options_equal(back.options, req.options, what.c_str());
    ASSERT_EQ(back.shards.size(), req.shards.size());
    for (std::size_t i = 0; i < req.shards.size(); ++i) {
      EXPECT_EQ(back.shards[i].shard, req.shards[i].shard);
      EXPECT_EQ(back.shards[i].job, req.shards[i].job);
      EXPECT_EQ(back.shards[i].unit_begin, req.shards[i].unit_begin);
      EXPECT_EQ(back.shards[i].unit_end, req.shards[i].unit_end);
    }

    WorkerPartialData part;
    part.shard = rng.below(100);
    part.job = rng.below(4);
    part.partial = fuzz_result(rng);
    part.alphabet_seen.assign(rng.below(70), false);
    for (std::size_t i = 0; i < part.alphabet_seen.size(); ++i) {
      part.alphabet_seen[i] = rng.below(2) != 0;
    }
    part.has_recognizer = rng.below(2) != 0;
    if (part.has_recognizer) {
      for (std::uint64_t f = rng.below(3); f > 0; --f) {
        std::vector<abv::RecognizerCoverage::RangeCov> frag;
        for (std::uint64_t r = rng.below(3); r > 0; --r) {
          abv::RecognizerCoverage::RangeCov row;
          row.name = static_cast<spec::Name>(rng.below(10));
          row.state_mask = static_cast<std::uint8_t>(rng.below(64));
          row.max_count = static_cast<std::uint32_t>(rng.below(20));
          row.lo = static_cast<std::uint32_t>(1 + rng.below(4));
          row.hi = row.lo + static_cast<std::uint32_t>(rng.below(4));
          frag.push_back(row);
        }
        part.recognizer_rows.push_back(frag);
      }
    }
    enc.clear();
    encode_worker_partial(enc, part);
    WorkerPartialData pback;
    Decoder pd(enc.bytes());
    ASSERT_TRUE(decode_worker_partial(pd, pback)) << pd.error().to_string();
    EXPECT_TRUE(pd.exhausted());
    EXPECT_EQ(pback.shard, part.shard);
    EXPECT_EQ(pback.job, part.job);
    expect_results_bitwise_equal(pback.partial, part.partial, what.c_str());
    EXPECT_EQ(pback.alphabet_seen, part.alphabet_seen);
    EXPECT_EQ(pback.has_recognizer, part.has_recognizer);
    ASSERT_EQ(pback.recognizer_rows.size(), part.recognizer_rows.size());
    for (std::size_t f = 0; f < part.recognizer_rows.size(); ++f) {
      ASSERT_EQ(pback.recognizer_rows[f].size(),
                part.recognizer_rows[f].size());
      for (std::size_t r = 0; r < part.recognizer_rows[f].size(); ++r) {
        EXPECT_EQ(pback.recognizer_rows[f][r].name,
                  part.recognizer_rows[f][r].name);
        EXPECT_EQ(pback.recognizer_rows[f][r].state_mask,
                  part.recognizer_rows[f][r].state_mask);
        EXPECT_EQ(pback.recognizer_rows[f][r].max_count,
                  part.recognizer_rows[f][r].max_count);
        EXPECT_EQ(pback.recognizer_rows[f][r].lo,
                  part.recognizer_rows[f][r].lo);
        EXPECT_EQ(pback.recognizer_rows[f][r].hi,
                  part.recognizer_rows[f][r].hi);
      }
    }

    enc.clear();
    encode_worker_done(enc, trial * 7);
    std::uint64_t count = 0;
    Decoder dd(enc.bytes());
    ASSERT_TRUE(decode_worker_done(dd, count));
    EXPECT_TRUE(dd.exhausted());
    EXPECT_EQ(count, trial * 7);

    enc.clear();
    encode_worker_error(enc, "boom " + std::to_string(trial));
    std::string message;
    Decoder ed(enc.bytes());
    ASSERT_TRUE(decode_worker_error(ed, message));
    EXPECT_TRUE(ed.exhausted());
    EXPECT_EQ(message, "boom " + std::to_string(trial));
  }
}

TEST(WireRoundTrip, EncoderClearKeepsCapacityLikeSnapshot) {
  // The mon::Snapshot reuse discipline on the wire: after a warm-up frame,
  // re-encoding payloads of no larger size must not grow the buffer.
  Encoder enc;
  support::Rng rng = support::Rng::stream(0xCAFE, 1);
  const abv::CampaignResult r = fuzz_result(rng);
  encode_result(enc, r);
  const std::size_t warm = enc.bytes().capacity();
  for (int i = 0; i < 100; ++i) {
    enc.clear();
    encode_result(enc, r);
    EXPECT_EQ(enc.bytes().capacity(), warm) << "iteration " << i;
  }
}

TEST(WireRoundTrip, MultipleFramesConcatenateAndStreamBack) {
  // Frames are a stream format: several in one buffer parse back in order,
  // each consuming exactly its own bytes.
  spec::Alphabet ab;
  support::Rng rng = support::Rng::stream(0xF00D, 2);
  const spec::Trace t = fuzz_trace(ab, rng, 30);
  const abv::CampaignOptions o = fuzz_options(rng);

  std::vector<std::uint8_t> stream;
  Encoder enc;
  encode_trace(enc, t, ab);
  write_frame(stream, Payload::Trace, enc);
  enc.clear();
  encode_options(enc, o);
  write_frame(stream, Payload::Options, enc);
  enc.clear();
  encode_worker_done(enc, 42);
  write_frame(stream, Payload::WorkerDone, enc);

  std::size_t offset = 0;
  const Payload expected[] = {Payload::Trace, Payload::Options,
                              Payload::WorkerDone};
  for (const Payload tag : expected) {
    Frame frame;
    std::size_t consumed = 0;
    DecodeError err;
    ASSERT_TRUE(parse_frame(stream.data() + offset, stream.size() - offset,
                            frame, consumed, err))
        << err.to_string();
    EXPECT_EQ(frame.tag, tag);
    offset += consumed;
  }
  EXPECT_EQ(offset, stream.size());
}

}  // namespace
}  // namespace loom::wire
