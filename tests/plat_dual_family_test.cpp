// Both monitor families attached to the live platform simultaneously:
// Drct and ViaPSL must reach compatible verdicts on the same in-simulation
// event stream, for the nominal scenario and for every fault injection.
#include <gtest/gtest.h>

#include "mon/monitors.hpp"
#include "plat/platform.hpp"
#include "psl/clause_monitor.hpp"
#include "spec/parser.hpp"

namespace loom::plat {
namespace {

constexpr const char* kExample2 =
    "(({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)";
// Range bounds kept materializable for the ViaPSL encoding (gallery of 8
// plus the probe read: 9 reads, comfortably within [1,40]).
constexpr const char* kExample3 =
    "(start => read_img[1,40] < set_irq, 2ms)";

struct DualHarness {
  explicit DualHarness(const PlatformConfig& cfg) : platform(cfg) {
    auto& ab = platform.alphabet();
    support::DiagnosticSink sink;
    auto p2 = spec::parse_property(kExample2, ab, sink);
    auto p3 = spec::parse_property(kExample3, ab, sink);
    if (!p2 || !p3) throw std::runtime_error(sink.to_string());

    drct2 = mon::make_monitor(*p2);
    drct3 = mon::make_monitor(*p3);
    psl2 = std::make_unique<psl::ClauseMonitor>(psl::encode(*p2, 2000000, &ab));
    psl3 = std::make_unique<psl::ClauseMonitor>(psl::encode(*p3, 2000000, &ab));
    for (auto* m :
         {drct2.get(), drct3.get(), psl2.get(), psl3.get()}) {
      modules.push_back(std::make_unique<mon::MonitorModule>(
          platform.scheduler(), "m" + std::to_string(modules.size()), *m,
          ab));
    }
    platform.observer().add_sink([this](spec::Name n, sim::Time t) {
      for (auto& mod : modules) mod->observe(n, t);
    });
  }

  void run() {
    platform.run(sim::Time::ms(10));
    for (auto& mod : modules) mod->finish();
  }

  AccessControlPlatform platform;
  std::unique_ptr<mon::Monitor> drct2, drct3, psl2, psl3;
  std::vector<std::unique_ptr<mon::MonitorModule>> modules;
};

TEST(DualFamily, NominalRunBothFamiliesPass) {
  PlatformConfig cfg;
  cfg.button_presses = 3;
  DualHarness h(cfg);
  h.run();
  EXPECT_EQ(h.drct2->verdict(), mon::Verdict::Holds);
  EXPECT_EQ(h.psl2->verdict(), mon::Verdict::Holds);
  EXPECT_NE(h.drct3->verdict(), mon::Verdict::Violated);
  EXPECT_NE(h.psl3->verdict(), mon::Verdict::Violated)
      << h.psl3->violation()->to_string(h.platform.alphabet());
}

TEST(DualFamily, SkippedRegisterCaughtByBoth) {
  PlatformConfig cfg;
  cfg.button_presses = 2;
  cfg.fault_skip_glsize = true;
  DualHarness h(cfg);
  h.run();
  EXPECT_EQ(h.drct2->verdict(), mon::Verdict::Violated);
  EXPECT_EQ(h.psl2->verdict(), mon::Verdict::Violated);
  // Example 3 remains satisfied in both families.
  EXPECT_NE(h.drct3->verdict(), mon::Verdict::Violated);
  EXPECT_NE(h.psl3->verdict(), mon::Verdict::Violated);
}

TEST(DualFamily, EarlyStartCaughtByBoth) {
  PlatformConfig cfg;
  cfg.button_presses = 2;
  cfg.fault_early_start = true;
  DualHarness h(cfg);
  h.run();
  EXPECT_EQ(h.drct2->verdict(), mon::Verdict::Violated);
  EXPECT_EQ(h.psl2->verdict(), mon::Verdict::Violated);
}

TEST(DualFamily, DroppedIrqCaughtByBothWatchdogs) {
  PlatformConfig cfg;
  cfg.button_presses = 1;
  cfg.fault_skip_irq = true;
  DualHarness h(cfg);
  h.run();
  EXPECT_EQ(h.drct3->verdict(), mon::Verdict::Violated);
  EXPECT_EQ(h.psl3->verdict(), mon::Verdict::Violated);
  EXPECT_NE(h.psl3->violation()->text().find("deadline"), std::string::npos);
}

TEST(DualFamily, SlowIpuCaughtByBoth) {
  PlatformConfig cfg;
  cfg.button_presses = 1;
  cfg.fault_slow_factor = 400;
  DualHarness h(cfg);
  h.run();
  EXPECT_EQ(h.drct3->verdict(), mon::Verdict::Violated);
  EXPECT_EQ(h.psl3->verdict(), mon::Verdict::Violated);
}

TEST(DualFamily, CostGapVisibleInSimulation) {
  PlatformConfig cfg;
  cfg.button_presses = 4;
  DualHarness h(cfg);
  h.run();
  // Same event stream: the ViaPSL monitor for Example 3 does far more work
  // per event than the Drct monitor (clause network vs active fragment).
  EXPECT_GT(h.psl3->stats().max_ops_per_event,
            5 * h.drct3->stats().max_ops_per_event);
  EXPECT_GT(h.psl3->space_bits(), h.drct3->space_bits());
}

}  // namespace
}  // namespace loom::plat
