// The seventh engine invariant: a campaign whose workers fault — hang,
// trickle, corrupt a frame, die mid-stream, skip their trailer or exit
// before doing any work — and are then re-dispatched by the supervisor
// must be byte-for-byte identical to a clean run.  Retry accounting is an
// engine diagnostic (CampaignResult::worker_retries), never semantic.
// Plus lockdowns of the degradation contract (allow_partial turns an
// exhausted worker slot into pinned per-shard failure records instead of a
// throw), the frame-deadline escalation (a Hang-faulted worker that
// ignores SIGTERM dies to SIGKILL without wedging the suite), the
// non-blocking reap (a worker lingering after its Done frame never costs a
// streaming sibling its deadline), clean supervised runs against the
// in-process engine and the reference loop, and the descriptor-hygiene /
// pidfd / bounded-wait process primitives underneath.
//
// Custom main: the binary re-execs itself with --worker so the fork+exec
// spawn path runs against a real exec'd worker, not just the fork-only
// in-image path.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "abv/campaign.hpp"
#include "reference_campaign.hpp"
#include "testing.hpp"
#include "wire/payload.hpp"
#include "wire/process.hpp"

#if LOOM_WIRE_HAS_PROCESS

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {
const char* g_self = nullptr;  // argv[0]: the exec-mode worker command
}

namespace loom::abv {
namespace {

constexpr const char* kProperty = "(({a, b}, &) < c << i, true)";

constexpr WorkerFault kAllFaults[] = {
    WorkerFault::CorruptFrame,   WorkerFault::DieMidStream,
    WorkerFault::FutureVersion,  WorkerFault::Hang,
    WorkerFault::SlowStream,     WorkerFault::PartialWritesOnly,
    WorkerFault::ExitBeforeRequest, WorkerFault::LingerAfterDone,
};

const char* fault_name(WorkerFault f) {
  switch (f) {
    case WorkerFault::None: return "None";
    case WorkerFault::CorruptFrame: return "CorruptFrame";
    case WorkerFault::DieMidStream: return "DieMidStream";
    case WorkerFault::FutureVersion: return "FutureVersion";
    case WorkerFault::Hang: return "Hang";
    case WorkerFault::SlowStream: return "SlowStream";
    case WorkerFault::PartialWritesOnly: return "PartialWritesOnly";
    case WorkerFault::ExitBeforeRequest: return "ExitBeforeRequest";
    case WorkerFault::LingerAfterDone: return "LingerAfterDone";
  }
  return "?";
}

// seeds=2 → 12 units; shard_size=3 → exactly four shards [0,3) [3,6)
// [6,9) [9,12), so every worker-count / fault-position case below has a
// pinned layout.
CampaignOptions small_options() {
  CampaignOptions opt;
  opt.seeds = 2;
  opt.stimuli.rounds = 2;
  opt.mutants_per_kind = 2;
  opt.shard_size = 3;
  return opt;
}

struct CampaignRun {
  CampaignResult result;
  std::string report;
};

CampaignRun run_with(const CampaignOptions& opt, const char* source = kProperty) {
  spec::Alphabet ab;
  auto p = loom::testing::parse(source, ab);
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

// The literal Fig. 1 loop (tests/reference_campaign.hpp) on kProperty.
CampaignRun run_reference(const CampaignOptions& opt) {
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  const CampaignResult r = loom::testing::reference_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

// ---------------------------------------------------------------------------
// The seventh invariant: faulted-then-retried ≡ clean, byte for byte.

TEST(CampaignSupervision, FaultedThenRetriedEqualsCleanAcrossTheGrid) {
  const CampaignRun clean = run_with(small_options());
  const CampaignRun reference = run_reference(small_options());
  EXPECT_TRUE(
      loom::testing::results_identical(clean.result, reference.result));
  EXPECT_EQ(clean.report, reference.report);
  // Generous deadline: only the Hang / SlowStream cells depend on it
  // firing, and a retired worker is always re-dispatched fault-free.
  for (const bool exec_mode : {false, true}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      for (const WorkerFault fault : kAllFaults) {
        CampaignOptions opt = small_options();
        opt.workers = workers;
        opt.worker_fault = fault;
        opt.worker_retries = 1;
        opt.worker_timeout_ms = 1000;
        if (exec_mode) opt.worker_command = {g_self, "--worker"};
        const CampaignRun retried = run_with(opt);
        const std::string what = std::string("fault=") + fault_name(fault) +
                                 " workers=" + std::to_string(workers) +
                                 (exec_mode ? " exec" : " fork");
        EXPECT_TRUE(
            loom::testing::results_identical(retried.result, clean.result))
            << what;
        EXPECT_EQ(retried.report, clean.report) << what;
        EXPECT_FALSE(retried.result.degraded()) << what;
        // The recovery is visible as a diagnostic — and only there.
        EXPECT_GE(retried.result.worker_retries, 1u) << what;
      }
    }
  }
}

TEST(CampaignSupervision, NthPartialFaultVariantsRecoverIdentically) {
  // The fault strikes the worker's second partial frame, so the parent has
  // already buffered a clean first partial from the same attempt — it must
  // be discarded with the attempt, not merged twice after the retry.
  const CampaignRun clean = run_with(small_options());
  for (const WorkerFault fault :
       {WorkerFault::CorruptFrame, WorkerFault::DieMidStream,
        WorkerFault::PartialWritesOnly}) {
    CampaignOptions opt = small_options();
    opt.workers = 2;  // two shards per worker → fault_at=1 exists
    opt.worker_fault = fault;
    opt.worker_fault_at = 1;
    opt.worker_retries = 1;
    const CampaignRun retried = run_with(opt);
    const std::string what = std::string("fault=") + fault_name(fault);
    EXPECT_TRUE(
        loom::testing::results_identical(retried.result, clean.result))
        << what;
    EXPECT_EQ(retried.report, clean.report) << what;
  }
}

TEST(CampaignSupervision, SeventhInvariantHoldsPerBackend) {
  for (const mon::Backend backend :
       {mon::Backend::Drct, mon::Backend::ViaPSL, mon::Backend::Vm}) {
    CampaignOptions base = small_options();
    base.backend = backend;
    const CampaignRun clean = run_with(base, "(n << i, true)");
    for (const WorkerFault fault :
         {WorkerFault::CorruptFrame, WorkerFault::Hang}) {
      CampaignOptions opt = base;
      opt.workers = 2;
      opt.worker_fault = fault;
      opt.worker_retries = 1;
      opt.worker_timeout_ms = 1000;
      const CampaignRun retried = run_with(opt, "(n << i, true)");
      const std::string what = std::string("backend=") +
                               mon::to_string(backend) +
                               " fault=" + fault_name(fault);
      EXPECT_TRUE(
          loom::testing::results_identical(retried.result, clean.result))
          << what;
      EXPECT_EQ(retried.report, clean.report) << what;
    }
  }
}

TEST(CampaignSupervision, FaultPositionBeyondThePartialCountDisarms) {
  // worker_fault_at past the worker's partial count: the fault never
  // strikes, the run is clean on the first attempt, no retry is spent.
  const CampaignRun clean = run_with(small_options());
  CampaignOptions opt = small_options();
  opt.workers = 2;
  opt.worker_fault = WorkerFault::CorruptFrame;
  opt.worker_fault_at = 99;
  opt.worker_retries = 0;  // would throw if the fault fired
  const CampaignRun run = run_with(opt);
  EXPECT_TRUE(loom::testing::results_identical(run.result, clean.result));
  EXPECT_EQ(run.report, clean.report);
  EXPECT_EQ(run.result.worker_retries, 0u);
}

// ---------------------------------------------------------------------------
// Deadlines and escalation.

TEST(CampaignSupervision, HungWorkerIsRetiredByTheFrameDeadline) {
  // No retries, no degradation: the deadline alone must surface the hang
  // as a WorkerFailure naming the timeout — and the SIGKILL escalation
  // must actually end a worker that ignores SIGTERM, promptly enough that
  // this test never brushes the suite timeout.
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  opt.workers = 1;
  opt.worker_fault = WorkerFault::Hang;
  opt.worker_timeout_ms = 250;
  const auto begin = std::chrono::steady_clock::now();
  try {
    run_campaign(p, ab, opt);
    FAIL() << "expected WorkerFailure";
  } catch (const WorkerFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out after 250 ms"), std::string::npos) << what;
    EXPECT_NE(what.find("attempt 1 of 1"), std::string::npos) << what;
  }
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 30.0);
}

TEST(CampaignSupervision, SlowStreamTimesOutLikeASilentOne) {
  // One byte per interval keeps poll() reporting readable forever; only
  // the per-frame deadline can retire it.
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  opt.workers = 1;
  opt.worker_fault = WorkerFault::SlowStream;
  opt.worker_timeout_ms = 250;
  try {
    run_campaign(p, ab, opt);
    FAIL() << "expected WorkerFailure";
  } catch (const WorkerFailure& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignSupervision, LingeringWorkerNeverCostsAStreamingSiblingItsDeadline) {
  // Three properties with one shard each (shard_size = a property's 12
  // units) on two workers: worker 0 runs properties 0 and 2 (two
  // partials), worker 1 runs property 1 (one partial), so
  // worker_fault_at=1 arms LingerAfterDone on worker 0 alone.  Property 1
  // is the heavy one: worker 1 is still computing when worker 0 sends its
  // Done frame and then withholds its exit past the 500 ms reap grace.
  // The frame deadline sits below that grace, so a drain that blocked on
  // worker 0's exit would let worker 1's deadline run out unserved and
  // retire a healthy worker.  Only worker 0 may be retired — once — and
  // the result must still equal a clean run.
  const char* sources[] = {
      "(n << i, true)",
      "(({n1, n2, n6, n7}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
      "(m << i, true)"};
  CampaignOptions base = small_options();
  base.stimuli.rounds = 8;
  base.mutants_per_kind = 16;
  base.shard_size = 12;
  const auto run = [&](const CampaignOptions& opt) {
    spec::Alphabet ab;
    std::vector<spec::Property> props;
    for (const char* src : sources) props.push_back(loom::testing::parse(src, ab));
    std::vector<const spec::Property*> ptrs;
    for (const auto& p : props) ptrs.push_back(&p);
    std::vector<CampaignRun> runs;
    for (const CampaignResult& r : run_campaigns(ptrs, ab, opt)) {
      runs.push_back({r, r.report(ab)});
    }
    return runs;
  };
  const std::vector<CampaignRun> clean = run(base);
  for (const bool exec_mode : {false, true}) {
    CampaignOptions opt = base;
    opt.workers = 2;
    opt.worker_fault = WorkerFault::LingerAfterDone;
    opt.worker_fault_at = 1;
    opt.worker_retries = 1;
    opt.worker_timeout_ms = 450;
    if (exec_mode) opt.worker_command = {g_self, "--worker"};
    const std::vector<CampaignRun> got = run(opt);
    const std::string mode = exec_mode ? "exec" : "fork";
    ASSERT_EQ(got.size(), clean.size()) << mode;
    // Retries are charged per property: worker 0's (0 and 2) once each,
    // worker 1's never.
    EXPECT_EQ(got[0].result.worker_retries, 1u) << mode;
    EXPECT_EQ(got[1].result.worker_retries, 0u) << mode;
    EXPECT_EQ(got[2].result.worker_retries, 1u) << mode;
    for (std::size_t p = 0; p < got.size(); ++p) {
      const std::string what = mode + " property " + std::to_string(p);
      EXPECT_FALSE(got[p].result.degraded()) << what;
      EXPECT_TRUE(
          loom::testing::results_identical(got[p].result, clean[p].result))
          << what;
      EXPECT_EQ(got[p].report, clean[p].report) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation (allow_partial).

TEST(CampaignSupervision, ExhaustedRetriesDegradeWithPinnedFailureRecords) {
  // Every worker faults, no retries: with allow_partial the campaign
  // returns instead of throwing, and the loss is itemized shard by shard.
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  opt.workers = 2;
  opt.worker_fault = WorkerFault::CorruptFrame;
  opt.worker_retries = 0;
  opt.allow_partial = true;
  const CampaignResult r = run_campaign(p, ab, opt);
  EXPECT_TRUE(r.degraded());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.worker_retries, 0u);
  ASSERT_EQ(r.shard_failures.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& f = r.shard_failures[i];
    EXPECT_EQ(f.shard, i);
    EXPECT_EQ(f.worker, i % 2);
    EXPECT_EQ(f.unit_begin, 3 * i);
    EXPECT_EQ(f.unit_end, 3 * i + 3);
    EXPECT_NE(f.diagnostic.find("bad magic"), std::string::npos)
        << f.diagnostic;
    EXPECT_NE(f.diagnostic.find("attempt 1 of 1"), std::string::npos)
        << f.diagnostic;
  }
  // Nothing from a failed slot merges: with both workers lost, the
  // aggregates are empty.
  EXPECT_EQ(r.traces, 0u);
  // The report carries the loss, line by line, and cannot claim a pass.
  const std::string report = r.report(ab);
  EXPECT_NE(report.find("degraded: shard 0 (units [0,3)) lost on worker 0: "),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("campaign FAILED"), std::string::npos) << report;
}

TEST(CampaignSupervision, DegradationKeepsTheSurvivingWorkersShards) {
  // Three workers, fault on the second partial: only worker 0 (the one
  // with two shards) faults.  Workers 1 and 2 merge normally; exactly
  // worker 0's shards (0 and 3) are recorded lost.
  spec::Alphabet ab;
  auto p = loom::testing::parse(kProperty, ab);
  CampaignOptions opt = small_options();
  opt.workers = 3;
  opt.worker_fault = WorkerFault::DieMidStream;
  opt.worker_fault_at = 1;
  opt.worker_retries = 0;
  opt.allow_partial = true;
  const CampaignResult r = run_campaign(p, ab, opt);
  EXPECT_TRUE(r.degraded());
  ASSERT_EQ(r.shard_failures.size(), 2u);
  EXPECT_EQ(r.shard_failures[0].shard, 0u);
  EXPECT_EQ(r.shard_failures[0].worker, 0u);
  EXPECT_EQ(r.shard_failures[1].shard, 3u);
  EXPECT_EQ(r.shard_failures[1].worker, 0u);
  // The surviving workers' work is present.
  EXPECT_GT(r.traces, 0u);
}

TEST(CampaignSupervision, AllowPartialWithRetriesStillRecoversCleanly) {
  // allow_partial is a last resort, not a shortcut: while the retry budget
  // holds, the run must come back clean and identical.
  const CampaignRun clean = run_with(small_options());
  CampaignOptions opt = small_options();
  opt.workers = 3;
  opt.worker_fault = WorkerFault::DieMidStream;
  opt.worker_fault_at = 1;
  opt.worker_retries = 1;
  opt.allow_partial = true;
  const CampaignRun run = run_with(opt);
  EXPECT_FALSE(run.result.degraded());
  EXPECT_TRUE(loom::testing::results_identical(run.result, clean.result));
  EXPECT_EQ(run.report, clean.report);
  EXPECT_EQ(run.result.worker_retries, 1u);
}

// ---------------------------------------------------------------------------
// A clean supervised run is the in-process run is the reference loop.

TEST(CampaignSupervision, SupervisedDrainMatchesInProcessAndReference) {
  const CampaignRun in_process = run_with(small_options());
  const CampaignRun reference = run_reference(small_options());
  EXPECT_TRUE(
      loom::testing::results_identical(in_process.result, reference.result));
  EXPECT_EQ(in_process.report, reference.report);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t timeout_ms : {std::size_t{0}, std::size_t{10000}}) {
      CampaignOptions opt = small_options();
      opt.workers = workers;
      opt.worker_timeout_ms = timeout_ms;
      const CampaignRun cross = run_with(opt);
      const std::string what = "workers=" + std::to_string(workers) +
                               " timeout_ms=" + std::to_string(timeout_ms);
      EXPECT_TRUE(
          loom::testing::results_identical(cross.result, in_process.result))
          << what;
      EXPECT_EQ(cross.report, in_process.report) << what;
      EXPECT_EQ(cross.result.worker_retries, 0u) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Worker-count and layout edges.

TEST(CampaignSupervision, MoreWorkersThanShardsClamps) {
  CampaignOptions base = small_options();
  base.seeds = 1;
  base.shard_size = 6;  // one shard of six units
  const CampaignRun in_process = run_with(base);
  CampaignOptions opt = base;
  opt.workers = 8;  // clamped to the single shard
  const CampaignRun cross = run_with(opt);
  EXPECT_TRUE(
      loom::testing::results_identical(cross.result, in_process.result));
  EXPECT_EQ(cross.report, in_process.report);
}

TEST(CampaignSupervision, ZeroSeedCampaignsWithWorkersDoNotSpawn) {
  // No units → no shards → the workers knob is moot; the run must not
  // throw, hang or fork.
  CampaignOptions opt = small_options();
  opt.seeds = 0;
  opt.workers = 4;
  opt.worker_fault = WorkerFault::Hang;  // would wedge if a worker spawned
  const CampaignRun r = run_with(opt);
  EXPECT_EQ(r.result.traces, 0u);
  EXPECT_EQ(r.result.worker_retries, 0u);
  EXPECT_FALSE(r.result.degraded());
}

// ---------------------------------------------------------------------------
// The process primitives underneath.

TEST(CampaignSupervision, SiblingWorkersDoNotHoldEachOthersPipesOpen) {
  // Regression for fork-mode descriptor leakage: worker 1 is spawned while
  // worker 0's pipes are open in the parent.  If the fork-only child did
  // not close those inherited ends, worker 0 would never see EOF on its
  // request pipe once the parent closes it.  Each child echoes one byte
  // after its EOF arrives.
  const auto echo_after_eof = [](int in, int out) {
    std::uint8_t b = 0;
    while (wire::read_exact(in, &b, 1) == 1) {
    }
    const std::uint8_t done = 0xAA;
    wire::write_all(out, &done, 1);
    return 0;
  };
  wire::WorkerProcess w0 = wire::spawn_worker({}, echo_after_eof, 0);
  wire::WorkerProcess w1 = wire::spawn_worker(
      {}, echo_after_eof, 1, {w0.to_child, w0.from_child});
  // Worker 1 stays fully alive while worker 0's EOF is delivered.
  w0.close_to_child();
  struct pollfd pfd = {w0.from_child, POLLIN, 0};
  ASSERT_GT(::poll(&pfd, 1, 5000), 0)
      << "worker 0 never saw EOF: a sibling holds its request pipe open";
  std::uint8_t byte = 0;
  ASSERT_EQ(wire::read_exact(w0.from_child, &byte, 1), 1);
  EXPECT_EQ(byte, 0xAA);
  w0.close_from_child();
  EXPECT_EQ(wire::exit_code(w0.wait()), 0);
  // Wind worker 1 down the same way: EOF, echo byte, then exit — closing
  // its reply pipe before reading would SIGPIPE the child instead.
  w1.close_to_child();
  byte = 0;
  ASSERT_EQ(wire::read_exact(w1.from_child, &byte, 1), 1);
  EXPECT_EQ(byte, 0xAA);
  w1.close_from_child();
  EXPECT_EQ(wire::exit_code(w1.wait()), 0);
}

TEST(CampaignSupervision, WaitForTimesOutOnARunningWorker) {
  wire::WorkerProcess w = wire::spawn_worker(
      {},
      [](int in, int) {
        std::uint8_t b = 0;
        wire::read_exact(in, &b, 1);  // blocks: the parent never writes
        // terminate() closes the request pipe before it signals, so the
        // read above may return on EOF first; staying blocked past it
        // leaves SIGTERM as the only way out.
        for (;;) ::pause();
        return 0;
      },
      0);
  int status = 0;
  EXPECT_FALSE(w.wait_for(60, status)) << "worker exited unexpectedly";
  // terminate() escalates and reaps; the child dies to SIGTERM.
  const int final_status = w.terminate(500);
  EXPECT_NE(wire::describe_wait_status(final_status).find("signal"),
            std::string::npos)
      << wire::describe_wait_status(final_status);
}

TEST(CampaignSupervision, WaitForReturnsTheExactExitCodeWellInsideTheDeadline) {
  wire::WorkerProcess w = wire::spawn_worker(
      {},
      [](int, int) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 42;
      },
      0);
  const auto begin = std::chrono::steady_clock::now();
  int status = 0;
  ASSERT_TRUE(w.wait_for(5000, status));
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_EQ(wire::exit_code(status), 42) << wire::describe_wait_status(status);
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 2.5);
  EXPECT_EQ(w.exit_fd, -1) << "reaping must release the pidfd";
}

TEST(CampaignSupervision, WaitForIsIdempotentAfterWait) {
  wire::WorkerProcess w =
      wire::spawn_worker({}, [](int, int) { return 3; }, 0);
  const int first = w.wait();
  EXPECT_EQ(wire::exit_code(first), 3);
  for (const long timeout_ms : {0L, 1000L}) {
    int status = -1;
    EXPECT_TRUE(w.wait_for(timeout_ms, status)) << timeout_ms;
    EXPECT_EQ(status, first) << timeout_ms;
  }
  EXPECT_EQ(w.wait(), first);
  EXPECT_EQ(w.terminate(100), first);
}

TEST(CampaignSupervision, TerminateEscalatesToSigkillForAWorkerIgnoringSigterm) {
  wire::WorkerProcess w = wire::spawn_worker(
      {},
      [](int, int out) {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = SIG_IGN;
        ::sigaction(SIGTERM, &sa, nullptr);
        const std::uint8_t ready = 1;
        wire::write_all(out, &ready, 1);
        for (;;) ::pause();
        return 0;
      },
      0);
  // Wait until the child ignores SIGTERM, so the escalation is what ends it.
  std::uint8_t ready = 0;
  ASSERT_EQ(wire::read_exact(w.from_child, &ready, 1), 1);
  const int status = w.terminate(100);
  ASSERT_TRUE(WIFSIGNALED(status)) << wire::describe_wait_status(status);
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  EXPECT_NE(wire::describe_wait_status(status).find(
                "killed by signal " + std::to_string(SIGKILL)),
            std::string::npos)
      << wire::describe_wait_status(status);
}

TEST(CampaignSupervision, SpawnWorkerOpensACloseOnExecPidfd) {
#if defined(__linux__)
  // Without a pidfd every wait falls back to 1 ms sleep-polling and the
  // supervisor caps its poll at 1 ms — correct but slow, and silent.
  // Pin the fast path on Linux so the fallback cannot slip in unnoticed.
  wire::WorkerProcess w = wire::spawn_worker(
      {},
      [](int in, int) {
        std::uint8_t b = 0;
        wire::read_exact(in, &b, 1);  // returns at EOF
        return 0;
      },
      0);
  ASSERT_GE(w.exit_fd, 0) << "pidfd_open failed: reaping would sleep-poll";
  EXPECT_NE(::fcntl(w.exit_fd, F_GETFD) & FD_CLOEXEC, 0);
  struct pollfd pfd = {w.exit_fd, POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "pidfd readable while the child runs";
  w.close_to_child();  // EOF: the child exits
  ASSERT_GT(::poll(&pfd, 1, 5000), 0) << "pidfd never reported the exit";
  EXPECT_EQ(wire::exit_code(w.wait()), 0);
  EXPECT_EQ(w.exit_fd, -1);
#else
  GTEST_SKIP() << "pidfd_open is Linux-only";
#endif
}

std::size_t open_descriptor_count() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(CampaignSupervision, SupervisedRunsLeaveNoDescriptorBehind) {
  // Pipes and pidfds of every attempt — clean, retired-and-retried,
  // exhausted-and-degraded — must all be closed when the campaign returns.
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "no /proc/self/fd to count descriptors with";
  }
  CampaignOptions clean = small_options();
  clean.workers = 2;
  CampaignOptions hang = clean;
  hang.worker_fault = WorkerFault::Hang;
  hang.worker_retries = 1;
  hang.worker_timeout_ms = 250;
  CampaignOptions degraded = clean;
  degraded.worker_fault = WorkerFault::CorruptFrame;
  degraded.allow_partial = true;
  const struct {
    const char* name;
    const CampaignOptions& opt;
  } cases[] = {{"clean", clean}, {"hang+retry", hang}, {"degraded", degraded}};
  for (const auto& c : cases) {
    const std::size_t before = open_descriptor_count();
    const CampaignRun r = run_with(c.opt);
    EXPECT_EQ(open_descriptor_count(), before) << c.name;
    EXPECT_EQ(r.result.degraded(), &c.opt == &degraded) << c.name;
  }
}

TEST(CampaignSupervision, RequestTimeoutBoundsAnAbandonedWorker) {
  // A worker whose parent never writes the request frame must exit on its
  // own once run_campaign_worker is given a request deadline — the
  // loomcheck --worker --worker-timeout-ms= path.
  int request[2], reply[2];
  ASSERT_EQ(::pipe(request), 0);
  ASSERT_EQ(::pipe(reply), 0);
  const int code = run_campaign_worker(request[0], reply[1], 100);
  EXPECT_EQ(code, kWorkerExitBadRequest);
  ::close(reply[1]);
  wire::FdFrameReader reader(reply[0]);
  wire::Frame frame;
  wire::DecodeError err;
  ASSERT_EQ(reader.next(frame, err), wire::FdFrameReader::Status::Frame);
  ASSERT_EQ(frame.tag, wire::Payload::WorkerError);
  wire::Decoder d(frame.data, frame.size);
  std::string message;
  ASSERT_TRUE(wire::decode_worker_error(d, message));
  EXPECT_NE(message.find("timed out"), std::string::npos) << message;
  for (int fd : {request[0], request[1], reply[0]}) ::close(fd);
}

}  // namespace
}  // namespace loom::abv

#endif  // LOOM_WIRE_HAS_PROCESS

int main(int argc, char** argv) {
#if LOOM_WIRE_HAS_PROCESS
  // Hidden worker mode, checked before gtest sees the arguments: the
  // exec-mode cells of the grids re-exec this binary as their worker.
  if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0) {
    return loom::abv::run_campaign_worker(0, 1);
  }
  g_self = argv[0];
#endif
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
