// Worker-failure robustness: a cross-process campaign whose worker dies,
// corrupts its stream or speaks a future wire version must surface a
// WorkerFailure naming the problem — never hang, never merge a partial
// result — and the worker-side exit codes are pinned as protocol, like
// the frame layout itself.  The fault injection is WorkerFault, a
// test-only knob the worker honors deterministically on its first partial
// frame, so every failure mode here is reproducible byte for byte.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "testing.hpp"
#include "wire/payload.hpp"
#include "wire/process.hpp"
#include "wire/wire.hpp"

#if LOOM_WIRE_HAS_PROCESS

#include <unistd.h>

namespace loom::abv {
namespace {

constexpr const char* kProperty = "(({a, b}, &) < c << i, true)";

CampaignOptions small_options() {
  CampaignOptions opt;
  opt.seeds = 2;
  opt.stimuli.rounds = 2;
  opt.mutants_per_kind = 2;
  return opt;
}

// Runs a cross-process campaign with the given fault injected into every
// worker, expecting WorkerFailure whose message contains `expect`.
void expect_failure(WorkerFault fault, const std::string& expect,
                    std::size_t workers = 2) {
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  opt.workers = workers;
  opt.worker_fault = fault;
  try {
    run_campaign(p, ab, opt);
    FAIL() << "expected WorkerFailure containing \"" << expect << "\"";
  } catch (const WorkerFailure& e) {
    EXPECT_NE(std::string(e.what()).find("cross-process campaign"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(CampaignWorkerFault, CorruptFrameSurfacesThePositionedDiagnostic) {
  // The worker flips the magic byte of its first partial frame; the parent
  // must reject at the frame layer and name the corruption.
  expect_failure(WorkerFault::CorruptFrame, "bad magic");
}

TEST(CampaignWorkerFault, FutureWireVersionIsRefusedByName) {
  // A worker from a newer build stamps kWireVersion + 1: the parent says
  // exactly that instead of misparsing the frame.
  expect_failure(
      WorkerFault::FutureVersion,
      "wire format version " + std::to_string(wire::kWireVersion + 1));
}

TEST(CampaignWorkerFault, WorkerDyingMidFrameNeverHangsTheParent) {
  // Half a frame then exit: the parent's frame reader sees the stream end
  // inside a payload and fails immediately — no blocking on a pipe that
  // will never fill, no garbage merged.
  expect_failure(WorkerFault::DieMidStream, "stream ended inside");
}

TEST(CampaignWorkerFault, EveryFaultFailsAtEveryWorkerCount) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    expect_failure(WorkerFault::CorruptFrame, "bad magic", workers);
    expect_failure(WorkerFault::DieMidStream, "stream ended inside",
                   workers);
  }
}

TEST(CampaignWorkerFault, ExecOfNonexistentBinaryFails) {
  // Exec mode pointed at a binary that is not there: the child _exit(127)s
  // before speaking any wire; the parent must turn that into WorkerFailure
  // (either the request write breaks on the dead pipe or the stream ends
  // with the exec-failure exit code — both are clean failures).
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  opt.workers = 1;
  opt.worker_command = {"/nonexistent/loomcheck-worker-binary", "--worker"};
  EXPECT_THROW(run_campaign(p, ab, opt), WorkerFailure);
}

TEST(CampaignWorkerFault, ExecFailureIsNamedInTheDiagnostic) {
  // The pinned exec exit codes (126 setup, 127 execvp) must not surface as
  // a bare "exited with code 127": the parent's message says in words that
  // the worker command could not be executed.
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  opt.workers = 1;
  opt.worker_command = {"/nonexistent/loomcheck-worker-binary", "--worker"};
  try {
    run_campaign(p, ab, opt);
    FAIL() << "expected WorkerFailure";
  } catch (const WorkerFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("could not be executed"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(kWorkerExitExecMissing)),
              std::string::npos)
        << what;
  }
}

TEST(CampaignWorkerFault, FaultlessRunStillSucceedsAfterFailedOnes) {
  // The failure paths must not poison process-wide state (SIGPIPE
  // handling, leaked descriptors, zombie children): a clean cross-process
  // run after a string of failed ones still matches in-process bytes.
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  const CampaignResult in_process = run_campaign(p, ab, opt);
  for (int round = 0; round < 2; ++round) {
    CampaignOptions bad = opt;
    bad.workers = 2;
    bad.worker_fault = WorkerFault::DieMidStream;
    EXPECT_THROW(run_campaign(p, ab, bad), WorkerFailure);
  }
  CampaignOptions good = opt;
  good.workers = 2;
  const CampaignResult cross = run_campaign(p, ab, good);
  EXPECT_TRUE(loom::testing::results_identical(cross, in_process));
  EXPECT_EQ(cross.report(ab), in_process.report(ab));
}

// ---------------------------------------------------------------------------
// The worker side, driven directly over pipes from the test process: the
// exit codes and the response stream shapes are protocol, pinned here.

struct Pipes {
  int request_read = -1;   // worker's in_fd
  int request_write = -1;  // test writes the request here
  int reply_read = -1;     // test reads the worker's frames here
  int reply_write = -1;    // worker's out_fd

  Pipes() {
    int a[2], b[2];
    EXPECT_EQ(::pipe(a), 0);
    EXPECT_EQ(::pipe(b), 0);
    request_read = a[0];
    request_write = a[1];
    reply_read = b[0];
    reply_write = b[1];
  }
  ~Pipes() {
    for (int fd : {request_read, request_write, reply_read, reply_write}) {
      if (fd >= 0) ::close(fd);
    }
  }

  // Writes `bytes` as the whole request stream and closes the write end.
  void send_request(const std::vector<std::uint8_t>& bytes) {
    ASSERT_TRUE(wire::write_all(request_write, bytes.data(), bytes.size()));
    ::close(request_write);
    request_write = -1;
  }

  // Runs the worker on this thread and closes its ends afterwards, so the
  // reply stream has a proper EOF.  The response pipe's kernel buffer
  // holds the small replies these tests produce; a worker blocking here
  // would be a test failure by timeout, which is exactly the hang the
  // protocol forbids.
  int run_worker() {
    const int code = run_campaign_worker(request_read, reply_write);
    ::close(request_read);
    request_read = -1;
    ::close(reply_write);
    reply_write = -1;
    return code;
  }
};

// Drains the reply stream into (tag, payload bytes) pairs.
std::vector<std::pair<wire::Payload, std::vector<std::uint8_t>>> drain(
    int fd) {
  std::vector<std::pair<wire::Payload, std::vector<std::uint8_t>>> frames;
  wire::FdFrameReader reader(fd);
  wire::Frame frame;
  wire::DecodeError err;
  while (reader.next(frame, err) == wire::FdFrameReader::Status::Frame) {
    frames.emplace_back(frame.tag,
                        std::vector<std::uint8_t>(frame.data,
                                                  frame.data + frame.size));
  }
  EXPECT_TRUE(err.message.empty()) << err.to_string();
  return frames;
}

std::string error_text(const std::vector<std::uint8_t>& payload) {
  wire::Decoder d(payload.data(), payload.size());
  std::string message;
  EXPECT_TRUE(wire::decode_worker_error(d, message)) << d.error().to_string();
  return message;
}

TEST(CampaignWorkerDirect, EmptyInputExitsBadRequestWithAnErrorFrame) {
  Pipes pipes;
  pipes.send_request({});
  EXPECT_EQ(pipes.run_worker(), kWorkerExitBadRequest);
  const auto frames = drain(pipes.reply_read);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, wire::Payload::WorkerError);
  EXPECT_NE(error_text(frames[0].second).find("no request frame"),
            std::string::npos);
}

TEST(CampaignWorkerDirect, GarbageInputExitsBadRequest) {
  Pipes pipes;
  pipes.send_request({0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                      11, 12, 13, 14});
  EXPECT_EQ(pipes.run_worker(), kWorkerExitBadRequest);
  const auto frames = drain(pipes.reply_read);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, wire::Payload::WorkerError);
  EXPECT_NE(error_text(frames[0].second).find("bad magic"),
            std::string::npos);
}

TEST(CampaignWorkerDirect, WrongFrameTagExitsBadRequest) {
  wire::Encoder enc;
  wire::encode_worker_done(enc, 3);
  std::vector<std::uint8_t> framed;
  wire::write_frame(framed, wire::Payload::WorkerDone, enc);
  Pipes pipes;
  pipes.send_request(framed);
  EXPECT_EQ(pipes.run_worker(), kWorkerExitBadRequest);
  const auto frames = drain(pipes.reply_read);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_NE(error_text(frames[0].second).find("expected a WorkerRequest"),
            std::string::npos);
}

std::vector<std::uint8_t> framed_request(const wire::WorkerRequestData& req) {
  wire::Encoder enc;
  wire::encode_worker_request(enc, req);
  std::vector<std::uint8_t> framed;
  wire::write_frame(framed, wire::Payload::WorkerRequest, enc);
  return framed;
}

wire::WorkerRequestData valid_request() {
  wire::WorkerRequestData req;
  req.names = {"a", "b", "c"};
  req.directions = {0, 0, 0};
  req.properties = {kProperty};
  req.options = small_options();
  // seeds=2 for job 0; two shards of one seed each.
  req.shards = {{0, 0, 0, 1}, {1, 0, 1, 2}};
  return req;
}

TEST(CampaignWorkerDirect, UnparsableWorkerPropertyExitsBadProperty) {
  wire::WorkerRequestData req = valid_request();
  req.properties = {"(((this is not a property"};
  Pipes pipes;
  pipes.send_request(framed_request(req));
  EXPECT_EQ(pipes.run_worker(), kWorkerExitBadProperty);
  const auto frames = drain(pipes.reply_read);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, wire::Payload::WorkerError);
  EXPECT_NE(error_text(frames[0].second).find("property"),
            std::string::npos);
}

TEST(CampaignWorkerDirect, OutOfRangeShardAssignmentExitsBadRequest) {
  const wire::WorkerShardSpec bad[] = {
      {0, 0, 0, 3},  // seed_end past the request's two seeds
      {0, 0, 2, 1},  // seed_begin past seed_end
      {0, 7, 0, 1},  // job 7 of a 1-property request
  };
  for (const wire::WorkerShardSpec& spec : bad) {
    wire::WorkerRequestData req = valid_request();
    req.shards = {spec};
    Pipes pipes;
    pipes.send_request(framed_request(req));
    EXPECT_EQ(pipes.run_worker(), kWorkerExitBadRequest)
        << "job " << spec.job << " seeds [" << spec.seed_begin << ","
        << spec.seed_end << ")";
    const auto frames = drain(pipes.reply_read);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_NE(error_text(frames[0].second).find("shard assignment"),
              std::string::npos);
  }
}

TEST(CampaignWorkerDirect, ValidRequestStreamsPartialsThenDone) {
  const wire::WorkerRequestData req = valid_request();
  Pipes pipes;
  pipes.send_request(framed_request(req));
  EXPECT_EQ(pipes.run_worker(), kWorkerExitOk);
  const auto frames = drain(pipes.reply_read);
  ASSERT_EQ(frames.size(), req.shards.size() + 1);
  for (std::size_t i = 0; i < req.shards.size(); ++i) {
    ASSERT_EQ(frames[i].first, wire::Payload::WorkerPartial) << i;
    wire::WorkerPartialData part;
    wire::Decoder d(frames[i].second.data(), frames[i].second.size());
    ASSERT_TRUE(wire::decode_worker_partial(d, part))
        << d.error().to_string();
    EXPECT_TRUE(d.exhausted());
    // Partials arrive in assignment order, tagged with the parent's global
    // shard index — the slot they merge back into.
    EXPECT_EQ(part.shard, req.shards[i].shard);
    EXPECT_EQ(part.job, req.shards[i].job);
    EXPECT_GT(part.partial.events, 0u) << "shard " << i << " did no work";
  }
  ASSERT_EQ(frames.back().first, wire::Payload::WorkerDone);
  std::uint64_t count = 0;
  wire::Decoder d(frames.back().second.data(), frames.back().second.size());
  ASSERT_TRUE(wire::decode_worker_done(d, count));
  EXPECT_EQ(count, req.shards.size());
}

// Runs `req` on a direct worker that must succeed, and decodes its
// partials in assignment order.
std::vector<wire::WorkerPartialData> run_partials(
    const wire::WorkerRequestData& req) {
  Pipes pipes;
  pipes.send_request(framed_request(req));
  EXPECT_EQ(pipes.run_worker(), kWorkerExitOk);
  const auto frames = drain(pipes.reply_read);
  std::vector<wire::WorkerPartialData> parts;
  for (const auto& [tag, payload] : frames) {
    if (tag != wire::Payload::WorkerPartial) continue;
    wire::WorkerPartialData part;
    wire::Decoder d(payload.data(), payload.size());
    EXPECT_TRUE(wire::decode_worker_partial(d, part))
        << d.error().to_string();
    parts.push_back(std::move(part));
  }
  EXPECT_EQ(parts.size(), req.shards.size());
  return parts;
}

TEST(CampaignWorkerDirect, AnEmptySeedRangeIsAValidAssignment) {
  // seed_begin == seed_end is in range (the bound is ≤, not <), at the
  // first seed and at the request's seed count: each shard answers with
  // an empty partial rather than an error.
  wire::WorkerRequestData req = valid_request();
  req.shards = {{0, 0, 0, 0}, {1, 0, 2, 2}};
  const auto parts = run_partials(req);
  ASSERT_EQ(parts.size(), 2u);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].shard, req.shards[i].shard);
    EXPECT_EQ(parts[i].partial.traces, 0u) << "shard " << i;
    EXPECT_EQ(parts[i].partial.events, 0u) << "shard " << i;
    EXPECT_EQ(parts[i].partial.trace_cache_misses, 0u) << "shard " << i;
    EXPECT_EQ(parts[i].partial.trace_cache_hits, 0u) << "shard " << i;
  }
}

TEST(CampaignWorkerDirect, APartialCoversExactlyItsAssignedSeeds) {
  // Seeds [0,1), [1,2) and [0,2) of one property: the two-seed shard's
  // partial is the sum of the one-seed shards' partials, and each counts
  // one seed pass (one miss, five hits) per seed it ran.
  wire::WorkerRequestData req = valid_request();
  req.shards = {{0, 0, 0, 1}, {1, 0, 1, 2}, {2, 0, 0, 2}};
  const auto parts = run_partials(req);
  ASSERT_EQ(parts.size(), 3u);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::uint64_t seeds =
        req.shards[i].seed_end - req.shards[i].seed_begin;
    EXPECT_EQ(parts[i].partial.trace_cache_misses, seeds) << "shard " << i;
    EXPECT_EQ(parts[i].partial.trace_cache_hits, 5 * seeds) << "shard " << i;
    EXPECT_GT(parts[i].partial.events, 0u) << "shard " << i;
  }
  const CampaignResult& a = parts[0].partial;
  const CampaignResult& b = parts[1].partial;
  const CampaignResult& both = parts[2].partial;
  EXPECT_EQ(both.traces, a.traces + b.traces);
  EXPECT_EQ(both.events, a.events + b.events);
  EXPECT_EQ(both.valid_accepted, a.valid_accepted + b.valid_accepted);
  EXPECT_EQ(both.monitor_stats.events,
            a.monitor_stats.events + b.monitor_stats.events);
}

TEST(CampaignWorkerDirect, ThreadCountDoesNotChangeThePartials) {
  // The worker shares run_campaigns' set-up, threads 0 → the hardware's
  // count included: one, two and the hardware's threads send the same
  // partial frames byte for byte.
  std::vector<std::vector<std::uint8_t>> serial;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    wire::WorkerRequestData req = valid_request();
    req.options.threads = threads;
    Pipes pipes;
    pipes.send_request(framed_request(req));
    EXPECT_EQ(pipes.run_worker(), kWorkerExitOk) << "threads " << threads;
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const auto& [tag, payload] : drain(pipes.reply_read)) {
      payloads.push_back(payload);
    }
    ASSERT_EQ(payloads.size(), req.shards.size() + 1) << "threads " << threads;
    if (threads == 1) {
      serial = payloads;
    } else {
      EXPECT_EQ(payloads, serial) << "threads " << threads;
    }
  }
}

TEST(CampaignWorkerDirect, TrailingBytesAfterTheRequestAreRejected) {
  wire::Encoder enc;
  wire::encode_worker_request(enc, valid_request());
  enc.put_u8(0x55);  // one smuggled byte inside the frame's payload
  std::vector<std::uint8_t> framed;
  wire::write_frame(framed, wire::Payload::WorkerRequest, enc);
  Pipes pipes;
  pipes.send_request(framed);
  EXPECT_EQ(pipes.run_worker(), kWorkerExitBadRequest);
  const auto frames = drain(pipes.reply_read);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_NE(error_text(frames[0].second).find("trailing bytes"),
            std::string::npos);
}

}  // namespace
}  // namespace loom::abv

#endif  // LOOM_WIRE_HAS_PROCESS
