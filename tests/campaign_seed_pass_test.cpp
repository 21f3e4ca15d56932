// Lockdown of the one seed pass: the cache-entry build walks each valid
// trace once with the monitor, recording the checkpoint ladder and the
// valid unit's whole record (MonitorStats, verdict, alphabet and
// recognizer coverage) in that one walk, and the valid unit merges the
// record instead of walking again.
//   - walk_valid_trace's record equals an independent per-event walk that
//     samples after every event, field by field, for forced Drct, forced Vm
//     and Auto at every stride, and its ladder equals the plain recording;
//   - the walk steps past a rung the compact ladder refuses, so the record
//     covers the whole trace while the ladder stops there;
//   - campaigns that merge the stored record equal campaigns whose valid
//     unit walks itself (no ladder), instance accounting included;
//   - shard layouts that split one seed's six units across shards give the
//     default layout's results, and their logical monitor draws add up to
//     the same total;
//   - a seed's site list, shared by the seed's site-reading units in one
//     shard, never outlives the shard in the thread's scratch.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "abv/seed_pass.hpp"
#include "mon/checkpoint_ladder.hpp"
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

// The obviously-correct valid phase: one observe per event, coverage
// recorded and sampled after every event, then finish.
ValidRecord per_event_walk(const mon::CompiledProperty& compiled,
                           const spec::Trace& trace) {
  std::unique_ptr<mon::Monitor> monitor = compiled.instantiate();
  const spec::Property& p = compiled.property();
  ValidRecord want;
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
  want.violated = monitor->verdict() == mon::Verdict::Violated;
  want.stats = monitor->stats();
  return want;
}

::testing::AssertionResult records_equal(const ValidRecord& got,
                                         const ValidRecord& want) {
  std::ostringstream diff;
  if (got.stats.ops != want.stats.ops) diff << " ops";
  if (got.stats.events != want.stats.events) diff << " events";
  if (got.stats.max_ops_per_event != want.stats.max_ops_per_event) {
    diff << " max_ops_per_event";
  }
  if (got.violated != want.violated) diff << " verdict";
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

// Every rung of `got` restores the same monitor state as rung k of `want`.
::testing::AssertionResult ladders_equal(const mon::CompiledProperty& compiled,
                                         const mon::CheckpointLadder& got,
                                         const mon::CheckpointLadder& want) {
  if (got.count() != want.count() || got.compact() != want.compact()) {
    return ::testing::AssertionFailure()
           << "rungs " << got.count() << " vs " << want.count();
  }
  for (std::size_t k = 0; k < got.count(); ++k) {
    auto a = compiled.instantiate();
    auto b = compiled.instantiate();
    got.restore_into(k, *a);
    want.restore_into(k, *b);
    mon::Snapshot sa;
    mon::Snapshot sb;
    a->snapshot(sa);
    b->snapshot(sb);
    if (!loom::testing::snapshots_equal(sa, sb)) {
      return ::testing::AssertionFailure() << "rung " << k << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CampaignSeedPass, RecordEqualsAnIndependentPerEventWalk) {
  StimuliOptions stimuli;  // the seeds_wide stimuli
  stimuli.rounds = 16;
  stimuli.noise_permille = 100;
  std::size_t rungs_seen = 0;
  for (const char* shape : kShapes) {
    for (const mon::Backend backend : kBackends) {
      spec::Alphabet ab;
      const spec::Property p = loom::testing::parse(shape, ab);
      pre_intern_stimuli_names(ab, stimuli);
      const mon::CompiledProperty compiled = compile_for(p, ab, backend);
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        support::Rng rng = support::Rng::stream(seed, 0);
        const spec::Trace trace = generate_valid(p, ab, rng, stimuli);
        const ValidRecord want = per_event_walk(compiled, trace);
        EXPECT_TRUE(records_equal(
            walk_valid_trace(compiled, *compiled.instantiate(), trace), want))
            << shape << " " << name_of(backend) << " seed " << seed
            << " without a ladder";
        for (const std::size_t stride : kStrides) {
          mon::CheckpointLadder ladder;
          const ValidRecord got = walk_valid_trace(
              compiled, *compiled.instantiate(), trace, &ladder, stride);
          EXPECT_TRUE(records_equal(got, want))
              << shape << " " << name_of(backend) << " seed " << seed
              << " stride " << stride;
          mon::CheckpointLadder plain;
          auto recorder = compiled.instantiate();
          plain.record(*recorder, trace, stride);
          EXPECT_TRUE(ladders_equal(compiled, ladder, plain))
              << shape << " " << name_of(backend) << " seed " << seed
              << " stride " << stride;
          EXPECT_EQ(ladder.count(), trace.size() / stride);
          rungs_seen += ladder.count();
        }
      }
    }
  }
  EXPECT_GT(rungs_seen, 0u);
}

TEST(CampaignSeedPass, TheWalkStepsPastARefusedRung) {
  // (n << i, true) over a trace that violates at ordinal 8 (a second i in
  // a row; the MonVmRung case): a compact ladder at stride 2 keeps the
  // four rungs before the violation, a Snapshot ladder all ten, and either
  // way the record covers all twenty events and the violation.
  spec::Alphabet ab;
  const spec::Property p = loom::testing::parse("(n << i, true)", ab);
  const spec::Trace t = loom::testing::trace_of(
      "n i n i n i n i i n i n i n i n i n i n", ab);
  ASSERT_EQ(t.size(), 20u);
  for (const mon::Backend backend : {mon::Backend::Vm, mon::Backend::Drct}) {
    const mon::CompiledProperty compiled = compile_for(p, ab, backend);
    ASSERT_EQ(compiled.chosen(), backend);
    const ValidRecord want = per_event_walk(compiled, t);
    ASSERT_TRUE(want.violated);
    mon::CheckpointLadder ladder;
    const ValidRecord got = walk_valid_trace(
        compiled, *compiled.instantiate(), t, &ladder, /*stride=*/2);
    EXPECT_TRUE(records_equal(got, want)) << name_of(backend);
    EXPECT_EQ(got.stats.events, t.size()) << name_of(backend);
    EXPECT_TRUE(got.violated) << name_of(backend);
    EXPECT_EQ(ladder.count(), backend == mon::Backend::Vm ? 4u : 10u);
    EXPECT_EQ(ladder.compact(), backend == mon::Backend::Vm);
  }
}

struct CampaignRun {
  CampaignResult result;
  std::string report;
};

CampaignRun run_shapes(std::size_t shape, mon::Backend backend,
                       std::size_t stride, std::size_t mutants,
                       std::size_t threads,
                       std::size_t shard_size) {
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
  opt.shard_size = shard_size;
  const CampaignResult r = run_campaign(p, ab, opt);
  return {r, r.report(ab)};
}

::testing::AssertionResult same_accounting(const CompileStats& a,
                                           const CompileStats& b) {
  if (a.instances_stamped == b.instances_stamped &&
      a.instance_reuses == b.instance_reuses) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "stamped " << a.instances_stamped << " vs " << b.instances_stamped
         << ", reuses " << a.instance_reuses << " vs " << b.instance_reuses;
}

TEST(CampaignSeedPass, MergedRecordEqualsTheValidUnitsOwnWalk) {
  // Stride 0: no ladder, so every valid unit walks its trace itself.  At
  // any positive stride the valid unit merges the record of the seed
  // pass — the same result, and the same logical draws.
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
          EXPECT_TRUE(same_accounting(merged.result.compile_stats,
                                      walked.result.compile_stats))
              << where;
        }
      }
    }
  }
}

TEST(CampaignSeedPass, ShardsThatSplitASeedGiveTheDefaultLayoutsResults) {
  // Shard sizes 1, 4 and 7 put one seed's six units (valid phase first) in
  // different shards, so a seed's entry is often built by a mutation unit
  // of another shard and the valid unit merges a record it did not walk.
  // Per layout the instance counters are a pure function of the layout
  // (serial ≡ 4 threads); across layouts every unit still counts one
  // logical draw per monitor it stands for, so stamped + reused is
  // layout-independent.
  for (std::size_t shape = 0; shape < std::size(kShapes); ++shape) {
    for (const mon::Backend backend : kBackends) {
      const CampaignRun base =
          run_shapes(shape, backend, 8, 2, /*threads=*/1, /*shard=*/0);
      const std::size_t base_draws =
          base.result.compile_stats.instances_stamped +
          base.result.compile_stats.instance_reuses;
      for (const std::size_t shard_size :
           {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
        const CampaignRun serial =
            run_shapes(shape, backend, 8, 2, 1, shard_size);
        const CampaignRun parallel =
            run_shapes(shape, backend, 8, 2, 4, shard_size);
        const std::string where = std::string(kShapes[shape]) + " " +
                                  name_of(backend) + " shard " +
                                  std::to_string(shard_size);
        for (const CampaignRun* run : {&serial, &parallel}) {
          EXPECT_TRUE(
              loom::testing::results_identical(run->result, base.result))
              << where;
          EXPECT_EQ(run->report, base.report) << where;
          EXPECT_EQ(run->result.compile_stats.instances_stamped +
                        run->result.compile_stats.instance_reuses,
                    base_draws)
              << where;
        }
        EXPECT_TRUE(same_accounting(parallel.result.compile_stats,
                                    serial.result.compile_stats))
            << where;
        EXPECT_EQ(serial.result.trace_cache_hits +
                      serial.result.trace_cache_misses,
                  base.result.trace_cache_hits +
                      base.result.trace_cache_misses)
            << where;
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
  // a list kept in the thread's scratch past its shard would be reused for
  // the next campaign's, or the next property's, seed 0.
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
