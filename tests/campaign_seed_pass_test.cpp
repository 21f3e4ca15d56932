// Lockdown of the one seed pass: a seed task walks each valid trace once
// with the monitor, sampling the valid unit's coverage into the shard's
// accumulators and pausing at its mutants' divergence positions, where
// their replays fork from the live state.
//   - walk_valid_trace's record and coverage equal an independent
//     per-event walk that samples after every event, field by field, for
//     forced Drct, forced Vm and Auto, and the live state at every stop
//     equals that of a monitor stepped over the same prefix;
//   - the walk steps past a state the compact rung refuses, so the record
//     covers the whole trace;
//   - campaigns at every stride equal campaigns that replay every mutant
//     from event 0 (stride 0);
//   - every layout of whole-seed shards gives the default layout's
//     results, serially and on four threads, with one seed pass per seed;
//   - a seed's site list never outlives its seed task in the thread's
//     scratch.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "abv/seed_pass.hpp"
#include "mon/snapshot.hpp"
#include "mon/vm.hpp"
#include "testing.hpp"

namespace loom::abv {
namespace {

// The perfbench seeds_wide properties.
const char* const kShapes[] = {
    "(({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)",
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(p[2,3] => q[1,4] < r, 1ms)",
    "(n << i, true)",
};

constexpr mon::Backend kBackends[] = {mon::Backend::Auto, mon::Backend::Drct,
                                      mon::Backend::Vm};

constexpr std::size_t kStrides[] = {1, 3, 8, 32, 1000000};

const char* name_of(mon::Backend b) {
  switch (b) {
    case mon::Backend::Auto: return "Auto";
    case mon::Backend::Drct: return "Drct";
    case mon::Backend::Vm: return "Vm";
    case mon::Backend::ViaPSL: return "ViaPSL";
  }
  return "?";
}

mon::CompiledProperty compile_for(const spec::Property& p,
                                  const spec::Alphabet& ab,
                                  mon::Backend backend) {
  CampaignOptions options;
  options.backend = backend;
  return compile_property_plans({&p}, ab, options)[0].compiled;
}

// A walk's record together with the coverage it sampled.
struct Walked {
  ValidRecord record;
  std::optional<AlphabetCoverage> alphabet;
  std::optional<RecognizerCoverage> recognizer;
};

// The obviously-correct valid phase: one observe per event, coverage
// recorded and sampled after every event, then finish.
Walked per_event_walk(const mon::CompiledProperty& compiled,
                      const spec::Trace& trace) {
  std::unique_ptr<mon::Monitor> monitor = compiled.instantiate();
  const spec::Property& p = compiled.property();
  Walked want;
  want.alphabet.emplace(p.alphabet());
  const mon::AntecedentMonitor* drct = nullptr;
  const mon::VmMonitor* vm = nullptr;
  if (p.is_antecedent()) {
    if (compiled.chosen() == mon::Backend::Drct) {
      drct = dynamic_cast<const mon::AntecedentMonitor*>(monitor.get());
      want.recognizer.emplace(*drct);
    } else if (compiled.chosen() == mon::Backend::Vm) {
      vm = dynamic_cast<const mon::VmMonitor*>(monitor.get());
      want.recognizer.emplace(*vm);
    }
  }
  for (const spec::TimedEvent& ev : trace) {
    monitor->observe(ev.name, ev.time);
    want.alphabet->record(ev.name);
    if (vm != nullptr) want.recognizer->sample(*vm);
    if (drct != nullptr) want.recognizer->sample(*drct);
  }
  monitor->finish(trace.empty() ? sim::Time::zero() : trace.back().time);
  want.record.violated = monitor->verdict() == mon::Verdict::Violated;
  want.record.stats = monitor->stats();
  return want;
}

// walk_valid_trace with coverage sinks and stops, as a Walked.
template <typename AtStop>
Walked walk(const mon::CompiledProperty& compiled, mon::Monitor& monitor,
            const spec::Trace& trace, std::span<const std::size_t> stops,
            AtStop&& at_stop) {
  Walked got;
  got.alphabet.emplace(compiled.property().alphabet());
  got.record = walk_valid_trace(compiled, monitor, trace,
                                {*got.alphabet, got.recognizer}, stops,
                                at_stop);
  return got;
}

::testing::AssertionResult records_equal(const Walked& got,
                                         const Walked& want) {
  std::ostringstream diff;
  if (got.record.stats.ops != want.record.stats.ops) diff << " ops";
  if (got.record.stats.events != want.record.stats.events) diff << " events";
  if (got.record.stats.max_ops_per_event !=
      want.record.stats.max_ops_per_event) {
    diff << " max_ops_per_event";
  }
  if (got.record.violated != want.record.violated) diff << " verdict";
  if (!got.alphabet || !(got.alphabet->seen() == want.alphabet->seen())) {
    diff << " alphabet";
  }
  if (got.recognizer.has_value() != want.recognizer.has_value()) {
    diff << " recognizer presence";
  } else if (got.recognizer) {
    const auto& a = got.recognizer->per_fragment();
    const auto& b = want.recognizer->per_fragment();
    if (a.size() != b.size()) diff << " recognizer fragments";
    for (std::size_t f = 0; f < a.size() && f < b.size(); ++f) {
      if (a[f].size() != b[f].size()) diff << " recognizer F" << f;
      for (std::size_t r = 0; r < a[f].size() && r < b[f].size(); ++r) {
        if (a[f][r].name != b[f][r].name ||
            a[f][r].state_mask != b[f][r].state_mask ||
            a[f][r].max_count != b[f][r].max_count ||
            a[f][r].lo != b[f][r].lo || a[f][r].hi != b[f][r].hi) {
          diff << " recognizer F" << f << "R" << r;
        }
      }
    }
  }
  if (diff.str().empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "record differs in:" << diff.str();
}

// The state of a fresh monitor of `compiled` after the first `events`
// events of `trace`, as a Snapshot.
mon::Snapshot state_after(const mon::CompiledProperty& compiled,
                          const spec::Trace& trace, std::size_t events) {
  auto m = compiled.instantiate();
  m->observe_batch(trace.data(), trace.data() + events);
  mon::Snapshot s;
  m->snapshot(s);
  return s;
}

TEST(CampaignSeedPass, RecordEqualsAnIndependentPerEventWalk) {
  StimuliOptions stimuli;  // the seeds_wide stimuli
  stimuli.rounds = 16;
  stimuli.noise_permille = 100;
  std::size_t stops_seen = 0;
  for (const char* shape : kShapes) {
    for (const mon::Backend backend : kBackends) {
      spec::Alphabet ab;
      const spec::Property p = loom::testing::parse(shape, ab);
      pre_intern_stimuli_names(ab, stimuli);
      const mon::CompiledProperty compiled = compile_for(p, ab, backend);
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        support::Rng rng = support::Rng::stream(seed, 0);
        const spec::Trace trace = generate_valid(p, ab, rng, stimuli);
        const Walked want = per_event_walk(compiled, trace);
        {
          auto monitor = compiled.instantiate();
          EXPECT_TRUE(records_equal(
              walk(compiled, *monitor, trace, {}, [](std::size_t) {}), want))
              << shape << " " << name_of(backend) << " seed " << seed
              << " without stops";
        }
        for (const std::size_t stride : kStrides) {
          // Stops at every multiple of the stride, 0 and the end included
          // when they are one: at each, the live state is the state after
          // that prefix.
          std::vector<std::size_t> stops;
          for (std::size_t at = 0; at <= trace.size(); at += stride) {
            stops.push_back(at);
          }
          auto monitor = compiled.instantiate();
          std::size_t visited = 0;
          const Walked got =
              walk(compiled, *monitor, trace, stops, [&](std::size_t at) {
                EXPECT_EQ(at, stops[visited]);
                ++visited;
                mon::Snapshot live;
                monitor->snapshot(live);
                EXPECT_TRUE(loom::testing::snapshots_equal(
                    live, state_after(compiled, trace, at)))
                    << shape << " " << name_of(backend) << " seed " << seed
                    << " stop " << at;
              });
          EXPECT_EQ(visited, stops.size());
          EXPECT_TRUE(records_equal(got, want))
              << shape << " " << name_of(backend) << " seed " << seed
              << " stride " << stride;
          stops_seen += visited;
        }
      }
    }
  }
  EXPECT_GT(stops_seen, 0u);
}

TEST(CampaignSeedPass, TheWalkStepsPastARefusedRung) {
  // (n << i, true) over a trace that violates at ordinal 8 (a second i in
  // a row; the MonVmRung case): stopping every 2 events, a Vm walker's
  // compact rung is refused from the fifth stop on, while the walk itself
  // goes on, so the record covers all twenty events and the violation.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(n << i, true)", ab);
  const spec::Trace t = loom::testing::trace_of(
      "n i n i n i n i i n i n i n i n i n i n", ab);
  ASSERT_EQ(t.size(), 20u);
  std::vector<std::size_t> stops;
  for (std::size_t at = 2; at <= t.size(); at += 2) stops.push_back(at);
  for (const mon::Backend backend : {mon::Backend::Vm, mon::Backend::Drct}) {
    const mon::CompiledProperty compiled = compile_for(p, ab, backend);
    ASSERT_EQ(compiled.chosen(), backend);
    const Walked want = per_event_walk(compiled, t);
    ASSERT_TRUE(want.record.violated);
    auto monitor = compiled.instantiate();
    std::size_t saved = 0;
    const Walked got = walk(compiled, *monitor, t, stops, [&](std::size_t) {
      if (backend != mon::Backend::Vm) return;
      auto& vm = static_cast<mon::VmMonitor&>(*monitor);
      std::vector<std::uint64_t> rung(mon::vm_rung_words(vm.program()));
      if (vm.save_rung(rung.data())) ++saved;
    });
    EXPECT_TRUE(records_equal(got, want)) << name_of(backend);
    EXPECT_EQ(got.record.stats.events, t.size()) << name_of(backend);
    EXPECT_TRUE(got.record.violated) << name_of(backend);
    if (backend == mon::Backend::Vm) EXPECT_EQ(saved, 4u);
  }
}

struct CampaignRun {
  CampaignResult result;
  std::string report;
};

CampaignRun run_shapes(std::size_t shape, mon::Backend backend,
                       std::size_t stride, std::size_t mutants,
                       std::size_t threads,
                       std::size_t shard_seeds) {
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse(kShapes[shape], ab);
  CampaignOptions opt;
  opt.seeds = 6;
  opt.stimuli.rounds = 6;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = mutants;
  opt.backend = backend;
  opt.checkpoint_stride = stride;
  opt.threads = threads;
  opt.shard_seeds = shard_seeds;
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

TEST(CampaignSeedPass, ForkedCampaignsEqualFullReplay) {
  // Stride 0: every mutant replays from event 0 and every oracle walk is
  // full.  At any positive stride the mutants fork from the valid walk —
  // the same result.
  for (std::size_t shape = 0; shape < std::size(kShapes); ++shape) {
    for (const mon::Backend backend : kBackends) {
      for (const std::size_t mutants : {std::size_t{0}, std::size_t{2}}) {
        const CampaignRun walked = run_shapes(shape, backend, /*stride=*/0,
                                              mutants, /*threads=*/1,
                                              /*shard=*/0);
        EXPECT_TRUE(walked.result.ok()) << walked.report;
        for (const std::size_t stride : kStrides) {
          const CampaignRun merged = run_shapes(
              shape, backend, stride, mutants, /*threads=*/1, /*shard=*/0);
          const std::string where = std::string(kShapes[shape]) + " " +
                                    name_of(backend) + " stride " +
                                    std::to_string(stride) + " mutants " +
                                    std::to_string(mutants);
          EXPECT_TRUE(loom::testing::results_identical(merged.result,
                                                       walked.result))
              << where;
          EXPECT_EQ(merged.report, walked.report) << where;
        }
      }
    }
  }
}

TEST(CampaignSeedPass, WholeSeedShardsGiveTheDefaultLayoutsResults) {
  // One to four seeds per shard (four leaves a short last shard of two)
  // and one shard for everything, against the automatic layout: each
  // shard runs whole seed tasks, so every layout runs one seed pass per
  // seed.
  for (std::size_t shape = 0; shape < std::size(kShapes); ++shape) {
    for (const mon::Backend backend : kBackends) {
      const CampaignRun base =
          run_shapes(shape, backend, 8, 2, /*threads=*/1, /*shard=*/0);
      for (const std::size_t shard_seeds :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
            std::size_t{100}}) {
        const CampaignRun serial =
            run_shapes(shape, backend, 8, 2, 1, shard_seeds);
        const CampaignRun parallel =
            run_shapes(shape, backend, 8, 2, 4, shard_seeds);
        const std::string where = std::string(kShapes[shape]) + " " +
                                  name_of(backend) + " shard_seeds " +
                                  std::to_string(shard_seeds);
        for (const CampaignRun* run : {&serial, &parallel}) {
          EXPECT_TRUE(
              loom::testing::results_identical(run->result, base.result))
              << where;
          EXPECT_EQ(run->report, base.report) << where;
          EXPECT_EQ(run->result.trace_cache_misses,
                    base.result.trace_cache_misses)
              << where;
          EXPECT_EQ(run->result.trace_cache_hits,
                    base.result.trace_cache_hits)
              << where;
        }
      }
    }
  }
}

// One report per property of a batch campaign with a single seed, run on
// the calling thread.
std::vector<std::string> single_seed_reports(
    const std::vector<std::size_t>& shapes, std::uint64_t first_seed) {
  spec::Alphabet ab;
  std::vector<spec::Property> props;
  for (const std::size_t k : shapes) {
    props.push_back(loom::testing::parse(kShapes[k], ab));
  }
  std::vector<const spec::Property*> ptrs;
  for (const auto& p : props) ptrs.push_back(&p);
  CampaignOptions opt;
  opt.first_seed = first_seed;
  opt.seeds = 1;
  opt.stimuli.rounds = 6;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 4;
  opt.threads = 1;
  std::vector<std::string> reports;
  for (const CampaignResult& r : run_campaigns(ptrs, ab, opt)) {
    reports.push_back(r.report(ab));
  }
  return reports;
}

TEST(CampaignSeedPass, ASeedsSiteListDoesNotOutliveItsShard) {
  // With one seed, every campaign's site-reading units read seed 0's list:
  // a list kept in the thread's scratch past its seed task would be reused
  // for the next campaign's, or the next property's, seed 0.
  constexpr std::uint64_t kFirstSeeds[] = {1, 77};
  std::vector<std::vector<std::string>> want(std::size(kShapes));
  for (std::size_t k = 0; k < std::size(kShapes); ++k) {
    for (const std::uint64_t first_seed : kFirstSeeds) {
      // Each campaign alone, on a thread of its own: a fresh scratch.
      want[k].push_back(std::async(std::launch::async, [k, first_seed] {
                          return single_seed_reports({k}, first_seed)[0];
                        }).get());
    }
  }
  for (std::size_t f = 0; f < std::size(kFirstSeeds); ++f) {
    for (std::size_t k = 0; k < std::size(kShapes); ++k) {
      EXPECT_EQ(single_seed_reports({k}, kFirstSeeds[f])[0], want[k][f])
          << kShapes[k] << " first seed " << kFirstSeeds[f];
    }
  }
  const std::vector<std::string> batch =
      single_seed_reports({0, 1, 2, 3}, kFirstSeeds[0]);
  for (std::size_t k = 0; k < std::size(kShapes); ++k) {
    EXPECT_EQ(batch[k], want[k][0]) << kShapes[k] << " in a batch";
  }
}

}  // namespace
}  // namespace loom::abv
