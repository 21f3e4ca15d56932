// The process-wide pool every in-process campaign runs on, at the campaign
// level: campaigns started concurrently from different threads share it
// and each still equals its serial run (serial ≡ parallel), and a fork-only
// worker run after the parent's pool exists builds its own pool in the
// child and equals the in-process result (in-process ≡ cross-process).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "abv/campaign.hpp"
#include "support/thread_pool.hpp"
#include "testing.hpp"
#include "wire/process.hpp"

#if LOOM_WIRE_HAS_PROCESS
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace loom::abv {
namespace {

const char* const kShapes[] = {
    "(({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(p[2,3] => q[1,4] < r, 1ms)",
    "(n << i, true)",
};

struct CampaignRun {
  CampaignResult result;
  std::string report;
};

CampaignRun run_shape(const char* source, std::uint64_t first_seed,
                      std::size_t threads, std::size_t workers = 0) {
  spec::Alphabet ab;  // one per run: concurrent runs share no alphabet
  const spec::Property p = loom::testing::parse(source, ab);
  CampaignOptions opt;
  opt.first_seed = first_seed;
  opt.seeds = 16;
  opt.stimuli.rounds = 6;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 2;
  opt.threads = threads;
  opt.workers = workers;
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

TEST(CampaignSharedPool, ConcurrentCampaignsEachEqualTheirSerialRun) {
  std::vector<CampaignRun> serial;
  for (std::size_t k = 0; k < std::size(kShapes); ++k) {
    serial.push_back(run_shape(kShapes[k], 10 + k, /*threads=*/1));
  }
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<CampaignRun>> runs;
    for (std::size_t k = 0; k < std::size(kShapes); ++k) {
      runs.push_back(std::async(std::launch::async, [k] {
        return run_shape(kShapes[k], 10 + k, /*threads=*/4);
      }));
    }
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const CampaignRun got = runs[k].get();
      EXPECT_TRUE(loom::testing::results_identical(got.result,
                                                   serial[k].result))
          << kShapes[k] << " round " << round;
      EXPECT_EQ(got.report, serial[k].report) << kShapes[k];
    }
  }
}

#if LOOM_WIRE_HAS_PROCESS

TEST(ForkAfterPool, AForkedChildBuildsItsOwnPool) {
  support::ThreadPool& parent = support::ThreadPool::shared(2);
  parent.for_each_index(16, [](std::size_t) {}, 3);
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // The inherited pool has no threads behind it: the child must get a
    // different one, and that one must run a batch.
    support::ThreadPool& own = support::ThreadPool::shared(2);
    std::atomic<int> hits{0};
    own.for_each_index(64, [&hits](std::size_t) { hits.fetch_add(1); }, 3);
    ::_exit(&own != &parent && hits.load() == 64 ? 0 : 1);
  }
  int status = 0;
  pid_t done = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((done = ::waitpid(child, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, &status, 0);
    FAIL() << "the forked child hung on the pool";
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(&support::ThreadPool::shared(1), &parent)
      << "the parent keeps its pool";
}

TEST(ForkAfterPool, ForkOnlyWorkersAfterAnInProcessCampaignEqualIt) {
  for (std::size_t k = 0; k < std::size(kShapes); ++k) {
    // The 4-thread in-process run leaves the parent's pool in place, with
    // its workers idle, before the fork-only workers start.
    const CampaignRun in_process = run_shape(kShapes[k], 30 + k, 4);
    const CampaignRun forked =
        run_shape(kShapes[k], 30 + k, /*threads=*/2, /*workers=*/2);
    EXPECT_TRUE(loom::testing::results_identical(forked.result,
                                                 in_process.result))
        << kShapes[k];
    EXPECT_EQ(forked.report, in_process.report) << kShapes[k];
  }
}

#endif

}  // namespace
}  // namespace loom::abv
