// The wire codec's rejection half: the malformed-frame fuzz wall.  Every
// hostile input — truncation at every byte boundary, seeded bit flips,
// oversized length prefixes, foreign magic/version/tag bytes, corruption
// buried inside nested payloads — must come back as a positioned
// diagnostic (offset inside the buffer, non-empty message), never a
// crash, never a hang, never an out-of-bounds read.  The ASan+UBSan CI
// leg runs this suite to hold "never UB" to the letter.  All randomness
// is support::Rng streams keyed by constants: the corpus is identical on
// every run and every platform.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "mon/snapshot.hpp"
#include "support/rng.hpp"
#include "testing.hpp"
#include "wire/payload.hpp"
#include "wire/wire.hpp"

namespace loom::wire {
namespace {

// One valid framed payload of each type, used as the seed corpus every
// corruption strategy mutates.
struct CorpusEntry {
  const char* name;
  Payload tag;
  std::vector<std::uint8_t> payload;  // unframed payload bytes
};

// Decodes `bytes` as payload `tag`, returning false with the decoder's
// positioned error when the codec rejected.  Success is allowed (a bit
// flip can land in a don't-care position or produce a different but
// well-formed value); what this harness asserts is that rejection is
// always clean and acceptance never reads out of bounds.
bool decode_as(Payload tag, const std::uint8_t* data, std::size_t size,
               DecodeError& err) {
  Decoder d(data, size);
  bool ok = false;
  switch (tag) {
    case Payload::Trace: {
      spec::Alphabet ab;
      spec::Trace t;
      ok = decode_trace(d, t, ab);
      break;
    }
    case Payload::Options: {
      abv::CampaignOptions o;
      ok = decode_options(d, o);
      break;
    }
    case Payload::Result: {
      abv::CampaignResult r;
      ok = decode_result(d, r);
      break;
    }
    case Payload::Snapshot: {
      mon::Snapshot s;
      ok = decode_snapshot(d, s);
      break;
    }
    case Payload::WorkerRequest: {
      WorkerRequestData req;
      ok = decode_worker_request(d, req);
      break;
    }
    case Payload::WorkerPartial: {
      WorkerPartialData part;
      ok = decode_worker_partial(d, part);
      break;
    }
    case Payload::WorkerDone: {
      std::uint64_t n = 0;
      ok = decode_worker_done(d, n);
      break;
    }
    case Payload::WorkerError: {
      std::string m;
      ok = decode_worker_error(d, m);
      break;
    }
  }
  if (!ok) err = d.error();
  return ok;
}

std::vector<CorpusEntry> build_corpus() {
  std::vector<CorpusEntry> corpus;
  Encoder e;
  support::Rng rng = support::Rng::stream(0xC0B9, 11);

  {
    spec::Alphabet ab;
    spec::Trace t;
    const char* pool[] = {"a", "b", "irq", "set_imgAddr"};
    std::uint64_t ps = 0;
    for (int i = 0; i < 12; ++i) {
      ps += 1 + rng.below(100);
      t.push_back({ab.name(pool[rng.below(4)]), sim::Time::ps(ps)});
    }
    e.clear();
    encode_trace(e, t, ab);
    corpus.push_back({"trace", Payload::Trace, e.bytes()});
  }
  {
    abv::CampaignOptions o;
    o.seeds = 7;
    o.worker_command = {"loomcheck", "--worker"};
    e.clear();
    encode_options(e, o);
    corpus.push_back({"options", Payload::Options, e.bytes()});
  }
  {
    abv::CampaignResult r;
    r.traces = 5;
    r.events = 321;
    r.alphabet_coverage = 0.75;
    r.mutation[2].applied = 9;
    e.clear();
    encode_result(e, r);
    corpus.push_back({"result", Payload::Result, e.bytes()});
  }
  {
    // A real monitor snapshot, tag word included.
    spec::Alphabet ab;
    auto p = loom::testing::parse("(({a, b}, &) < c << i, true)", ab);
    auto compiled = mon::CompiledProperty::compile(p, ab, {});
    auto m = compiled.instantiate();
    m->observe(ab.name("a"), sim::Time::ns(5));
    m->observe(ab.name("b"), sim::Time::ns(7));
    mon::Snapshot snap;
    m->snapshot(snap);
    e.clear();
    encode_snapshot(e, snap);
    corpus.push_back({"snapshot", Payload::Snapshot, e.bytes()});
  }
  {
    WorkerRequestData req;
    req.names = {"a", "b", "c", "noise0"};
    req.directions = {0, 0, 1, 2};
    req.properties = {"(a < b < c << i, true)"};
    req.shards = {{0, 0, 0, 6}, {1, 0, 6, 12}};
    e.clear();
    encode_worker_request(e, req);
    corpus.push_back({"request", Payload::WorkerRequest, e.bytes()});
  }
  {
    WorkerPartialData part;
    part.shard = 3;
    part.job = 1;
    part.partial.traces = 2;
    part.alphabet_seen = {true, false, true, true, false};
    part.has_recognizer = true;
    abv::RecognizerCoverage::RangeCov row;
    row.name = 2;
    row.state_mask = 5;
    row.max_count = 3;
    row.lo = 1;
    row.hi = 4;
    part.recognizer_rows = {{row, row}, {row}};
    e.clear();
    encode_worker_partial(e, part);
    corpus.push_back({"partial", Payload::WorkerPartial, e.bytes()});
  }
  {
    e.clear();
    encode_worker_done(e, 4);
    corpus.push_back({"done", Payload::WorkerDone, e.bytes()});
  }
  {
    e.clear();
    encode_worker_error(e, "worker 1: property parse failed");
    corpus.push_back({"error", Payload::WorkerError, e.bytes()});
  }
  return corpus;
}

// A rejection must be positioned inside (or at the end of) the buffer that
// produced it, with a message a human can act on.
void expect_positioned(const DecodeError& err, std::size_t buffer_size,
                       const std::string& what) {
  EXPECT_LE(err.offset, buffer_size) << what;
  EXPECT_FALSE(err.message.empty()) << what;
  EXPECT_NE(err.to_string().find("wire: byte "), std::string::npos) << what;
}

TEST(WireFuzz, PayloadTruncationAtEveryByteBoundary) {
  // Every strict prefix of every valid payload must reject with a
  // positioned diagnostic: a prefix can never decode cleanly because every
  // codec ends by consuming its last field, and the harness's exhausted()
  // requirement means dropped trailing bytes surface too.  (Prefixes that
  // happen to decode structurally are still caught: decode_as only returns
  // true when the decoder consumed what it needed without failing, and we
  // additionally require full consumption here.)
  for (const CorpusEntry& entry : build_corpus()) {
    for (std::size_t cut = 0; cut < entry.payload.size(); ++cut) {
      DecodeError err;
      const bool ok = decode_as(entry.tag, entry.payload.data(), cut, err);
      const std::string what = std::string(entry.name) + " cut at byte " +
                               std::to_string(cut);
      EXPECT_FALSE(ok) << what;
      if (!ok) expect_positioned(err, cut, what);
    }
  }
}

TEST(WireFuzz, FrameTruncationAtEveryByteBoundary) {
  // Same wall one layer up: a framed payload truncated anywhere — inside
  // the 16 header bytes or inside the payload — must fail parse_frame with
  // a positioned diagnostic.
  for (const CorpusEntry& entry : build_corpus()) {
    Encoder e;
    for (const std::uint8_t b : entry.payload) e.put_u8(b);
    std::vector<std::uint8_t> framed;
    write_frame(framed, entry.tag, e);
    for (std::size_t cut = 0; cut < framed.size(); ++cut) {
      Frame frame;
      std::size_t consumed = 0;
      DecodeError err;
      const bool ok =
          parse_frame(framed.data(), cut, frame, consumed, err);
      const std::string what = std::string(entry.name) +
                               " frame cut at byte " + std::to_string(cut);
      EXPECT_FALSE(ok) << what;
      if (!ok) expect_positioned(err, cut, what);
    }
  }
}

TEST(WireFuzz, HeaderFieldCorruptionsRejectWithNamedDiagnostics) {
  Encoder e;
  e.put_u64(42);
  std::vector<std::uint8_t> framed;
  write_frame(framed, Payload::WorkerDone, e);

  struct Case {
    std::size_t offset;
    std::uint8_t value;
    const char* expect_substr;
  };
  const Case cases[] = {
      {0, 0x00, "bad magic"},                     // magic byte 0
      {3, 0x4E, "bad magic"},                     // magic byte 3 ("LOON")
      {4, kWireVersion + 1, "wire format version"},  // future version
      {4, 0, "wire format version"},              // ancient version
      {5, 0, "payload tag"},                      // tag below range
      {5, 99, "payload tag"},                     // tag above range
      {6, 1, "reserved"},                         // reserved byte 6
      {7, 0x80, "reserved"},                      // reserved byte 7
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> bad = framed;
    bad[c.offset] = c.value;
    Frame frame;
    std::size_t consumed = 0;
    DecodeError err;
    const std::string what = "offset " + std::to_string(c.offset) +
                             " <- " + std::to_string(c.value);
    ASSERT_FALSE(parse_frame(bad.data(), bad.size(), frame, consumed, err))
        << what;
    expect_positioned(err, bad.size(), what);
    EXPECT_NE(err.message.find(c.expect_substr), std::string::npos)
        << what << ": got \"" << err.message << "\"";
    EXPECT_EQ(err.offset, c.offset >= 6 ? 6 : c.offset >= 5 ? 5
                          : c.offset >= 4  ? 4
                                           : 0)
        << what;
  }
}

TEST(WireFuzz, OversizedLengthPrefixesNeverAllocate) {
  Encoder e;
  e.put_u64(42);
  std::vector<std::uint8_t> framed;
  write_frame(framed, Payload::WorkerDone, e);

  // Length fields that lie: past the cap, past the buffer, and the
  // all-ones pattern that would overflow a naive header+length sum.
  const std::uint64_t lies[] = {
      kMaxFrameBytes + 1,
      std::uint64_t{1} << 40,
      ~std::uint64_t{0},
      framed.size(),  // claims more payload than the buffer holds
      9,              // one byte more than present
  };
  for (const std::uint64_t lie : lies) {
    std::vector<std::uint8_t> bad = framed;
    for (int i = 0; i < 8; ++i) {
      bad[8 + i] = static_cast<std::uint8_t>(lie >> (8 * i));
    }
    Frame frame;
    std::size_t consumed = 0;
    DecodeError err;
    const std::string what = "length=" + std::to_string(lie);
    ASSERT_FALSE(parse_frame(bad.data(), bad.size(), frame, consumed, err))
        << what;
    expect_positioned(err, bad.size(), what);
    EXPECT_EQ(err.offset, 8u) << what;
  }
}

TEST(WireFuzz, SingleBitFlipsNeverCrashAndRejectPositioned) {
  // Exhaustive single-bit corruption of every corpus payload: each decode
  // either rejects with a positioned diagnostic or succeeds having read
  // only in-bounds bytes (ASan is the witness for the latter).
  std::size_t rejected = 0, survived = 0;
  for (const CorpusEntry& entry : build_corpus()) {
    for (std::size_t byte = 0; byte < entry.payload.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> bad = entry.payload;
        bad[byte] = static_cast<std::uint8_t>(bad[byte] ^ (1u << bit));
        DecodeError err;
        if (decode_as(entry.tag, bad.data(), bad.size(), err)) {
          ++survived;  // landed in a value byte: different but well-formed
        } else {
          ++rejected;
          expect_positioned(err, bad.size(),
                            std::string(entry.name) + " bit " +
                                std::to_string(bit) + " of byte " +
                                std::to_string(byte));
        }
      }
    }
  }
  // The corpus is structured enough that plenty of flips must trip
  // validation (length prefixes, enum bytes, booleans, snapshot tags)...
  EXPECT_GT(rejected, 100u);
  // ...and plenty must not (pure value bytes), proving the harness
  // exercises the acceptance path under corruption too.
  EXPECT_GT(survived, 100u);
}

TEST(WireFuzz, RandomByteSplattersNeverCrash) {
  // Heavier seeded corruption: 1-16 random byte overwrites per trial, plus
  // random tails appended and random decode-as-wrong-type, over every
  // corpus entry.  Deterministic: every value comes from fixed Rng streams.
  const std::vector<CorpusEntry> corpus = build_corpus();
  std::size_t rejected = 0;
  for (std::uint64_t trial = 0; trial < 400; ++trial) {
    support::Rng rng = support::Rng::stream(0xF12 + trial, 23);
    const CorpusEntry& entry = corpus[rng.below(corpus.size())];
    std::vector<std::uint8_t> bad = entry.payload;
    const std::uint64_t splats = 1 + rng.below(16);
    for (std::uint64_t s = 0; s < splats && !bad.empty(); ++s) {
      bad[rng.below(bad.size())] = static_cast<std::uint8_t>(rng.below(256));
    }
    if (rng.chance(1, 4)) {  // sometimes grow a garbage tail
      for (std::uint64_t i = 1 + rng.below(32); i > 0; --i) {
        bad.push_back(static_cast<std::uint8_t>(rng.below(256)));
      }
    }
    // Sometimes decode as a different payload type entirely (a hostile
    // sender can stamp any tag on any bytes).
    const Payload as = rng.chance(1, 3)
                           ? static_cast<Payload>(1 + rng.below(8))
                           : entry.tag;
    DecodeError err;
    if (!decode_as(as, bad.data(), bad.size(), err)) {
      ++rejected;
      expect_positioned(err, bad.size(), "trial " + std::to_string(trial));
    }
  }
  EXPECT_GT(rejected, 200u);  // the wall actually rejects most garbage
}

TEST(WireFuzz, PureGarbageStreamsRejectEverywhere) {
  // No valid skeleton at all: random byte strings of every small length
  // against every decoder and the frame parser.
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    support::Rng rng = support::Rng::stream(0x6A4B + trial, 29);
    std::vector<std::uint8_t> junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    Frame frame;
    std::size_t consumed = 0;
    DecodeError err;
    if (parse_frame(junk.data(), junk.size(), frame, consumed, err)) {
      // Astronomically unlikely (needs magic+version+tag+zeros to line
      // up), but if it happens the frame must at least be in bounds.
      EXPECT_LE(consumed, junk.size());
    } else {
      expect_positioned(err, junk.size(), "trial " + std::to_string(trial));
    }
    for (int tag = 1; tag <= 8; ++tag) {
      DecodeError derr;
      if (!decode_as(static_cast<Payload>(tag), junk.data(), junk.size(),
                     derr)) {
        expect_positioned(derr, junk.size(),
                          "payload trial " + std::to_string(trial) +
                              " tag " + std::to_string(tag));
      }
    }
  }
}

TEST(WireFuzz, NestedCorruptionInsideWorkerPayloads) {
  // Surgical strikes on the nested structures: corrupt count words and
  // enum bytes buried inside a WorkerRequest/WorkerPartial and check the
  // rejection names the inner field, proving validation reaches all the
  // way down (a count is validated against remaining bytes BEFORE any
  // container is sized off it).
  Encoder e;

  {
    // A direction byte of 7 (valid range 0..2) deep inside the request.
    WorkerRequestData req;
    req.names = {"a", "b"};
    req.directions = {0, 7};
    req.properties = {"(a << i, true)"};
    e.clear();
    encode_worker_request(e, req);
    WorkerRequestData back;
    Decoder d(e.bytes());
    ASSERT_FALSE(decode_worker_request(d, back));
    expect_positioned(d.error(), e.size(), "direction byte");
    EXPECT_NE(d.error().message.find("direction"), std::string::npos)
        << d.error().to_string();
  }
  {
    // A name-count word claiming 2^60 names: must fail the count guard at
    // the count's own offset, before any vector is sized.
    WorkerRequestData req;
    req.names = {"a"};
    req.directions = {0};
    e.clear();
    encode_worker_request(e, req);
    std::vector<std::uint8_t> bad = e.bytes();
    const std::uint64_t lie = std::uint64_t{1} << 60;
    for (int i = 0; i < 8; ++i) {
      bad[i] = static_cast<std::uint8_t>(lie >> (8 * i));
    }
    WorkerRequestData back;
    Decoder d(bad.data(), bad.size());
    ASSERT_FALSE(decode_worker_request(d, back));
    expect_positioned(d.error(), bad.size(), "name count");
    EXPECT_EQ(d.error().offset, 0u);
  }
  {
    // A trace event pointing past its own name table.
    spec::Alphabet ab;
    spec::Trace t;
    t.push_back({ab.name("a"), sim::Time::ns(1)});
    e.clear();
    encode_trace(e, t, ab);
    // Layout: count(names)=1, "a", count(events)=1, idx u64, time u64.
    // The event's table index is the third-from-last u64; overwrite it.
    std::vector<std::uint8_t> bad = e.bytes();
    const std::size_t idx_at = bad.size() - 16;
    bad[idx_at] = 9;  // index 9 into a 1-entry table
    spec::Alphabet ab2;
    spec::Trace back;
    Decoder d(bad.data(), bad.size());
    ASSERT_FALSE(decode_trace(d, back, ab2));
    expect_positioned(d.error(), bad.size(), "trace name index");
    EXPECT_NE(d.error().message.find("names table"), std::string::npos)
        << d.error().to_string();
  }
  {
    // A snapshot whose tag word names a future snapshot version: the wire
    // decoder rejects it exactly like Monitor::restore would, but as a
    // positioned diagnostic instead of an exception.
    mon::Snapshot snap;
    snap.put_u64(mon::snapshot_tag(0x414E5443));  // a real ANTC tag...
    snap.put_u64(7);
    e.clear();
    encode_snapshot(e, snap);
    mon::Snapshot out;
    {
      Decoder d(e.bytes());
      ASSERT_TRUE(decode_snapshot(d, out));  // current version: accepted
    }
    snap.set_word(0, (std::uint64_t{mon::kSnapshotVersion + 1} << 32) |
                         0x414E5443);
    e.clear();
    encode_snapshot(e, snap);
    Decoder d(e.bytes());
    ASSERT_FALSE(decode_snapshot(d, out));
    expect_positioned(d.error(), e.size(), "future snapshot");
    EXPECT_NE(d.error().message.find(
                  "snapshot format version " +
                  std::to_string(mon::kSnapshotVersion + 1)),
              std::string::npos)
        << d.error().to_string();
  }
  {
    // A boolean byte of 0xFF inside options (byte-level strictness: a
    // flipped bit cannot smuggle a vacuously-true flag through).
    abv::CampaignOptions o;
    e.clear();
    encode_options(e, o);
    std::vector<std::uint8_t> bad = e.bytes();
    bool tripped = false;
    for (std::size_t i = 0; i < bad.size() && !tripped; ++i) {
      if (bad[i] > 1) continue;  // only bytes that could be the flags
      std::vector<std::uint8_t> mutant = bad;
      mutant[i] = 0xFF;
      abv::CampaignOptions back;
      Decoder d(mutant.data(), mutant.size());
      if (!decode_options(d, back) &&
          d.error().message.find("boolean") != std::string::npos) {
        expect_positioned(d.error(), mutant.size(), "boolean strictness");
        tripped = true;
      }
    }
    EXPECT_TRUE(tripped) << "no 0xFF overwrite ever tripped the boolean "
                            "guard — did the options layout lose its flags?";
  }
}

TEST(WireFuzz, WorkerFaultByteBeyondTheLastFaultIsRejected) {
  // The fault byte's valid range ends at the last WorkerFault enumerator:
  // that one decodes, the next value is refused at the byte's own offset.
  // The byte is located by diffing two encodings, not by layout arithmetic.
  constexpr auto last = abv::WorkerFault::LingerAfterDone;
  abv::CampaignOptions o;
  Encoder plain;
  encode_options(plain, o);
  o.worker_fault = last;
  Encoder faulted;
  encode_options(faulted, o);
  ASSERT_EQ(plain.size(), faulted.size());
  std::size_t at = 0;
  while (at < plain.size() && plain.bytes()[at] == faulted.bytes()[at]) ++at;
  ASSERT_LT(at, plain.size()) << "worker_fault is not encoded";
  {
    abv::CampaignOptions back;
    Decoder d(faulted.bytes());
    ASSERT_TRUE(decode_options(d, back)) << d.error().to_string();
    EXPECT_EQ(back.worker_fault, last);
  }
  std::vector<std::uint8_t> bad = faulted.bytes();
  bad[at] = static_cast<std::uint8_t>(static_cast<std::uint8_t>(last) + 1);
  abv::CampaignOptions back;
  Decoder d(bad.data(), bad.size());
  ASSERT_FALSE(decode_options(d, back));
  expect_positioned(d.error(), bad.size(), "fault byte");
  EXPECT_EQ(d.error().offset, at);
  EXPECT_NE(d.error().message.find(
                "bad worker-fault byte " +
                std::to_string(static_cast<int>(last) + 1)),
            std::string::npos)
      << d.error().to_string();
}

TEST(WireFuzz, ErrorStateIsStickyAndReadsReturnZero) {
  // After the first failure every later read is a quiet zero and the first
  // diagnostic survives — the pattern the payload codecs rely on to
  // validate eagerly but check ok() once.
  std::vector<std::uint8_t> three = {1, 2, 3};
  Decoder d(three.data(), three.size());
  EXPECT_EQ(d.u64(), 0u);  // truncated: fails
  ASSERT_FALSE(d.ok());
  const std::string first = d.error().to_string();
  EXPECT_EQ(d.u32(), 0u);
  EXPECT_EQ(d.u8(), 0u);
  EXPECT_FALSE(d.boolean());
  std::string s = "unchanged";
  d.string_into(s);
  std::vector<bool> bits = {true};
  d.bits_into(bits);
  EXPECT_EQ(d.remaining(), 0u);
  EXPECT_FALSE(d.exhausted());
  EXPECT_EQ(d.error().to_string(), first);
}

}  // namespace
}  // namespace loom::wire
