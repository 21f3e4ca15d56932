// Platform integration tests: the Fig. 2 access-control device, its
// firmware, and the paper's Example 2 / Example 3 properties monitored
// in-simulation through the observation adapter.
#include <gtest/gtest.h>

#include "abv/trace.hpp"
#include "mon/monitors.hpp"
#include "plat/platform.hpp"
#include "sim/trace_capture.hpp"
#include "spec/parser.hpp"
#include "spec/wellformed.hpp"
#include "testing.hpp"

namespace loom::plat {
namespace {

constexpr const char* kExample2 =
    "(({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)";
constexpr const char* kExample3 =
    "(start => read_img[1,60000] < set_irq, 2ms)";

struct Harness {
  explicit Harness(const PlatformConfig& cfg) : platform(cfg) {
    support::DiagnosticSink sink;
    auto p2 = spec::parse_property(kExample2, platform.alphabet(), sink);
    auto p3 = spec::parse_property(kExample3, platform.alphabet(), sink);
    if (!p2 || !p3) throw std::runtime_error(sink.to_string());
    EXPECT_TRUE(spec::check_wellformed(*p2, platform.alphabet(), sink))
        << sink.to_string();
    EXPECT_TRUE(spec::check_wellformed(*p3, platform.alphabet(), sink))
        << sink.to_string();
    example2 = std::make_unique<mon::AntecedentMonitor>(p2->antecedent());
    example3 = std::make_unique<mon::TimedImplicationMonitor>(p3->timed());
    mod2 = std::make_unique<mon::MonitorModule>(
        platform.scheduler(), "monitor_ex2", *example2, platform.alphabet());
    mod3 = std::make_unique<mon::MonitorModule>(
        platform.scheduler(), "monitor_ex3", *example3, platform.alphabet());
    platform.observer().add_sink([this](spec::Name n, sim::Time t) {
      mod2->observe(n, t);
      mod3->observe(n, t);
    });
  }

  void run(sim::Time limit = sim::Time::ms(10)) {
    platform.run(limit);
    mod2->finish();
    mod3->finish();
  }

  AccessControlPlatform platform;
  std::unique_ptr<mon::AntecedentMonitor> example2;
  std::unique_ptr<mon::TimedImplicationMonitor> example3;
  std::unique_ptr<mon::MonitorModule> mod2, mod3;
};

TEST(Platform, NominalScenarioCompletesRounds) {
  PlatformConfig cfg;
  cfg.button_presses = 3;
  Harness h(cfg);
  h.run();
  EXPECT_EQ(h.platform.gpio().presses(), 3u);
  EXPECT_EQ(h.platform.cpu().rounds_completed(), 3u);
  EXPECT_EQ(h.platform.ipu().recognitions(), 3u);
  // Every round reads probe + gallery.
  EXPECT_EQ(h.platform.ipu().gallery_reads(),
            3u * (1 + h.platform.config().gallery_size));
  EXPECT_GT(h.platform.lcdc().frames(), 0u);
  EXPECT_GT(h.platform.bus().transaction_count(), 50u);
}

TEST(Platform, NominalScenarioSatisfiesBothProperties) {
  PlatformConfig cfg;
  cfg.button_presses = 4;
  Harness h(cfg);
  h.run();
  EXPECT_NE(h.example2->verdict(), mon::Verdict::Violated)
      << h.example2->violation()->to_string(h.platform.alphabet());
  EXPECT_NE(h.example3->verdict(), mon::Verdict::Violated)
      << h.example3->violation()->to_string(h.platform.alphabet());
  // Example 2 is non-repeated: it retires at the first validated start.
  EXPECT_EQ(h.example2->verdict(), mon::Verdict::Holds);
  // The recorded trace replays cleanly against the reference semantics.
  const auto& trace = h.platform.recorder().trace();
  EXPECT_GE(trace.size(), 4u * 6u);
  const auto ref2 = spec::reference_check(h.example2->property(), trace);
  EXPECT_NE(ref2.verdict, spec::RefVerdict::Rejected) << ref2.reason.text();
}

TEST(Platform, MatchOpensAndAutoClosesTheLock) {
  PlatformConfig cfg;
  cfg.button_presses = 2;
  cfg.match_every = 1;  // every visitor is enrolled
  Harness h(cfg);
  h.run();
  EXPECT_EQ(h.platform.cpu().matches(), 2u);
  EXPECT_EQ(h.platform.lock().open_count(), 2u);
  EXPECT_FALSE(h.platform.lock().open()) << "TMR2 must auto-close the door";
}

TEST(Platform, StrangersDoNotOpenTheLock) {
  PlatformConfig cfg;
  cfg.button_presses = 3;
  cfg.match_every = 0;  // nobody is enrolled
  Harness h(cfg);
  h.run();
  EXPECT_EQ(h.platform.cpu().matches(), 0u);
  EXPECT_EQ(h.platform.lock().open_count(), 0u);
}

TEST(Platform, SkippedRegisterWriteViolatesExample2) {
  PlatformConfig cfg;
  cfg.button_presses = 2;
  cfg.fault_skip_glsize = true;
  Harness h(cfg);
  h.run();
  ASSERT_EQ(h.example2->verdict(), mon::Verdict::Violated);
  const auto& v = *h.example2->violation();
  EXPECT_EQ(h.platform.alphabet().text(v.name), "start");
  EXPECT_NE(v.text().find("before"), std::string::npos);
}

TEST(Platform, EarlyStartViolatesExample2) {
  PlatformConfig cfg;
  cfg.button_presses = 2;
  cfg.fault_early_start = true;
  Harness h(cfg);
  h.run();
  ASSERT_EQ(h.example2->verdict(), mon::Verdict::Violated);
  EXPECT_EQ(h.platform.alphabet().text(h.example2->violation()->name),
            "start");
}

TEST(Platform, DroppedIrqViolatesExample3ViaWatchdog) {
  PlatformConfig cfg;
  cfg.button_presses = 1;
  cfg.fault_skip_irq = true;
  Harness h(cfg);
  h.run(sim::Time::ms(10));
  ASSERT_EQ(h.example3->verdict(), mon::Verdict::Violated);
  EXPECT_NE(h.example3->violation()->text().find("deadline"),
            std::string::npos);
  // The watchdog reports promptly (bound is 2 ms; the round starts ~1 ms
  // in), well before the end of the 10 ms simulation.
  EXPECT_LT(h.example3->violation()->time, sim::Time::ms(4));
}

TEST(Platform, SlowIpuViolatesExample3Deadline) {
  PlatformConfig cfg;
  cfg.button_presses = 1;
  cfg.fault_slow_factor = 400;  // 8 images x 2 us x 400 = 6.4 ms >> 2 ms
  Harness h(cfg);
  h.run(sim::Time::ms(20));
  ASSERT_EQ(h.example3->verdict(), mon::Verdict::Violated);
  EXPECT_NE(h.example3->violation()->text().find("deadline"),
            std::string::npos);
}

TEST(Platform, RecordedTraceHasTheExpectedShape) {
  PlatformConfig cfg;
  cfg.button_presses = 1;
  cfg.gallery_size = 4;
  Harness h(cfg);
  h.run();
  const auto& ab = h.platform.alphabet();
  std::vector<std::string> names;
  for (const auto& ev : h.platform.recorder().trace()) {
    names.push_back(ab.text(ev.name));
  }
  // Three register writes (any order), start, 5 reads (probe + 4), irq.
  ASSERT_EQ(names.size(), 3u + 1u + 5u + 1u);
  EXPECT_EQ(names[3], "start");
  for (int k = 4; k < 9; ++k) EXPECT_EQ(names[k], "read_img");
  EXPECT_EQ(names[9], "set_irq");
  std::set<std::string> config(names.begin(), names.begin() + 3);
  EXPECT_EQ(config, (std::set<std::string>{"set_imgAddr", "set_glAddr",
                                           "set_glSize"}));
}

TEST(Platform, KernelCaptureFeedsRecorderAndReplaysBitIdentically) {
  // The sim-layer capture pipeline end-to-end on the real platform: the
  // IPU observer fans into a scheduler-bound TraceCapture, the capture
  // into an abv::TraceRecorder, and batch-replaying the captured trace
  // through fresh monitors reproduces the live in-simulation verdicts and
  // operation counts ("cached replay ≡ live stepping").
  PlatformConfig cfg;
  cfg.button_presses = 2;
  Harness h(cfg);
  sim::TraceCapture capture(h.platform.scheduler());
  h.platform.observer().attach(capture);
  abv::TraceRecorder replay_source;
  abv::attach(capture, replay_source);
  h.run();

  EXPECT_EQ(capture.captured_count(), h.platform.observer().events_observed());
  EXPECT_TRUE(loom::testing::traces_equal(replay_source.trace(),
                                          h.platform.recorder().trace(),
                                          h.platform.alphabet()));

  const spec::Trace replay = replay_source.take();
  ASSERT_FALSE(replay.empty());
  mon::Monitor* live[] = {h.example2.get(), h.example3.get()};
  support::DiagnosticSink sink;
  auto p2 = spec::parse_property(kExample2, h.platform.alphabet(), sink);
  auto p3 = spec::parse_property(kExample3, h.platform.alphabet(), sink);
  ASSERT_TRUE(p2 && p3) << sink.to_string();
  const spec::Property props[] = {*p2, *p3};
  for (std::size_t i = 0; i < 2; ++i) {
    auto monitor = mon::make_monitor(props[i]);
    monitor->observe_batch(replay);
    monitor->finish(replay.back().time);
    EXPECT_EQ(monitor->verdict(), live[i]->verdict()) << "property " << i;
    EXPECT_EQ(monitor->stats().events, live[i]->stats().events)
        << "property " << i;
    EXPECT_EQ(monitor->stats().ops, live[i]->stats().ops) << "property " << i;
  }
}

TEST(Platform, RegisterOrderIsActuallyRandomized) {
  // The loose-ordering freedom is real: across seeds, different write
  // orders occur (this is what over-constrained specs would forbid).
  std::set<std::string> orders;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    PlatformConfig cfg;
    cfg.seed = seed;
    cfg.button_presses = 1;
    Harness h(cfg);
    h.run();
    std::string order;
    const auto& ab = h.platform.alphabet();
    for (const auto& ev : h.platform.recorder().trace()) {
      const std::string n = ab.text(ev.name);
      if (n.rfind("set_", 0) == 0 && n != "set_irq") order += n + " ";
      if (n == "start") break;
    }
    orders.insert(order);
  }
  EXPECT_GE(orders.size(), 3u);
}

TEST(Platform, IpuRegistersReadBack) {
  PlatformConfig cfg;
  cfg.button_presses = 0;
  AccessControlPlatform plat(cfg);
  tlm::InitiatorSocket probe("probe");
  probe.bind(plat.bus().target_socket());
  sim::Time delay;
  probe.write_u32(AccessControlPlatform::kIpuBase + Ipu::kGlSize, 42, delay);
  std::uint32_t v = 0;
  probe.read_u32(AccessControlPlatform::kIpuBase + Ipu::kGlSize, v, delay);
  EXPECT_EQ(v, 42u);
  // Write to a read-only register is a command error.
  EXPECT_EQ(probe.write_u32(AccessControlPlatform::kIpuBase + Ipu::kStatus, 1,
                            delay),
            tlm::Response::CommandError);
}

TEST(Platform, UnmappedBusAccessFaultsTheCpu) {
  PlatformConfig cfg;
  cfg.button_presses = 0;
  AccessControlPlatform plat(cfg);
  tlm::InitiatorSocket probe("probe");
  probe.bind(plat.bus().target_socket());
  sim::Time delay;
  std::uint32_t v = 0;
  EXPECT_EQ(probe.read_u32(0xdead0000, v, delay),
            tlm::Response::AddressError);
}

}  // namespace
}  // namespace loom::plat
