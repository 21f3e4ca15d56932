// Scaling of the sharded campaign engine: the paper's Fig. 1 loop
// (stimuli → monitors → mutation → coverage) run serially and on the
// thread pool with growing thread counts.  Prints events/second and
// speedup per thread count and verifies on the way that every parallel run
// is bit-identical to the serial baseline (the engine's core invariant —
// see tests/campaign_parallel_test.cpp for the exhaustive version).
//
//   $ ./bench_scaling [max_threads] [seeds] [auto|drct|viapsl|vm] [stride]
//                     [--benchmark_format=json]
//
// `stride` is the checkpoint spacing of the incremental (suffix-only)
// mutant replay, so the threads sweep exercises the checkpointed path at
// any granularity (absent: the engine default,
// abv::CampaignOptions{}.checkpoint_stride).
//
// With --benchmark_format=json (the google-benchmark spelling, shared via
// bench/bench_json.hpp) the human table goes to stderr and stdout carries
// a benchmark-compatible JSON document — one entry per (property, thread
// count) with the stable engine counters — which tools/bench_record.py
// normalizes into the tracked BENCH_scaling.json baseline.
//
// The complexity sweeps that used to live here moved conceptually into
// bench_fig6_table, which prints the same Drct-vs-ViaPSL cost story.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "abv/campaign.hpp"
#include "bench_json.hpp"
#include "spec/parser.hpp"
#include "support/args.hpp"

namespace {

using namespace loom;

constexpr const char* kProperties[] = {
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
    "(p[2,3] => q[1,4] < r, 1ms)",
};

struct Sample {
  double seconds = 0.0;
  std::size_t monitor_events = 0;
  std::string report;
  abv::CampaignResult result;
};

Sample run_once(const char* source, std::size_t threads, std::size_t seeds,
                mon::Backend backend, std::size_t checkpoint_stride) {
  spec::Alphabet ab;
  support::DiagnosticSink sink;
  auto property = spec::parse_property(source, ab, sink);
  if (!property) {
    std::fprintf(stderr, "parse error:\n%s\n", sink.to_string().c_str());
    std::exit(1);
  }
  abv::CampaignOptions opt;
  opt.seeds = seeds;
  opt.stimuli.rounds = 6;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 24;
  opt.threads = threads;
  opt.shard_seeds = 1;  // one seed per shard: the finest grain
  opt.backend = backend;
  opt.checkpoint_stride = checkpoint_stride;  // incremental replay is on

  const auto begin = std::chrono::steady_clock::now();
  Sample s;
  s.result = abv::run_campaign(*property, ab, opt);
  const auto end = std::chrono::steady_clock::now();

  s.seconds = std::chrono::duration<double>(end - begin).count();
  s.monitor_events = static_cast<std::size_t>(s.result.monitor_stats.events);
  s.report = s.result.report(ab);
  return s;
}

int usage_error(const char* fmt, const char* what, const char* prog) {
  std::fprintf(stderr, fmt, what);
  std::fprintf(stderr,
               "usage: %s [max_threads] [seeds] [auto|drct|viapsl|vm] [stride]\n"
               "          [--benchmark_format=json]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Flags may appear anywhere; positionals keep their order.  The one flag
  // is the google-benchmark JSON spelling so every bench binary is driven
  // the same way; anything else starting with "--" is a usage error, and a
  // malformed positional ("5x", "99999999999999999999") exits 2 instead of
  // silently running the sweep with a substituted value.
  const bool json = bench::json_format_requested(argc, argv);
  std::vector<char*> positional = {argv[0]};
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--benchmark_format=json") == 0) continue;
    if (std::strncmp(argv[k], "--", 2) == 0) {
      return usage_error("unknown option: %s\n", argv[k], argv[0]);
    }
    positional.push_back(argv[k]);
  }
  const int pos_argc = static_cast<int>(positional.size());
  char** pos_argv = positional.data();

  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const auto max_threads =
      support::parse_count(pos_argc, pos_argv, 1, std::max<std::size_t>(hw, 8));
  if (!max_threads) {
    return usage_error("bad max_threads '%s' (want a positive count)\n",
                       pos_argv[1], argv[0]);
  }
  const auto seeds = support::parse_count(pos_argc, pos_argv, 2, 48);
  if (!seeds) {
    return usage_error("bad seeds '%s' (want a positive count)\n", pos_argv[2],
                       argv[0]);
  }
  const auto backend = loom::mon::parse_backend_arg(pos_argc, pos_argv, 3);
  if (!backend) {
    return usage_error("bad backend '%s' (want auto, drct, viapsl or vm)\n",
                       pos_argv[3], argv[0]);
  }
  const auto stride = support::parse_count(
      pos_argc, pos_argv, 4, loom::abv::CampaignOptions{}.checkpoint_stride);
  if (!stride) {
    return usage_error("bad stride '%s' (want a positive count)\n", pos_argv[4],
                       argv[0]);
  }

  // In JSON mode the table moves to stderr so stdout is exactly the
  // document tools/bench_record.py parses.
  std::FILE* const out = json ? stderr : stdout;
  bench::JsonReport report(argv[0]);

  std::fprintf(out,
               "Sharded campaign scaling (%zu hardware threads, %zu seeds, "
               "backend %s, checkpoint stride %zu)\n",
               hw, *seeds, loom::mon::to_string(*backend), *stride);
  bool all_identical = true;
  for (std::size_t p = 0; p < std::size(kProperties); ++p) {
    const char* source = kProperties[p];
    std::fprintf(out, "\nproperty: %s\n", source);
    std::fprintf(out, "%8s %12s %14s %9s %s\n", "threads", "wall [ms]",
                 "mon events/s", "speedup", "deterministic");

    const Sample serial = run_once(source, 1, *seeds, *backend, *stride);
    for (std::size_t t = 1; t <= *max_threads; t *= 2) {
      const Sample s =
          t == 1 ? serial : run_once(source, t, *seeds, *backend, *stride);
      const bool identical = s.report == serial.report;
      all_identical = all_identical && identical;
      std::fprintf(out, "%8zu %12.1f %14.3e %8.2fx %s\n", t, s.seconds * 1e3,
                   bench::safe_ratio(static_cast<double>(s.monitor_events),
                                     s.seconds),
                   bench::safe_ratio(serial.seconds, s.seconds),
                   identical ? "bit-identical" : "MISMATCH");

      bench::JsonBenchmark entry;
      entry.name = "BM_ScalingSweep/property:" + std::to_string(p) +
                   "/threads:" + std::to_string(t);
      entry.real_time_ns = s.seconds * 1e9;
      entry.label = source;
      entry.counters.emplace_back(
          "mon_events_per_s",
          bench::safe_ratio(static_cast<double>(s.monitor_events), s.seconds));
      entry.counters.emplace_back(
          "speedup", bench::safe_ratio(serial.seconds, s.seconds));
      entry.counters.emplace_back("bit_identical", identical ? 1.0 : 0.0);
      for (const auto& c : s.result.diagnostic_counters()) {
        entry.counters.emplace_back(c.name, c.value);
      }
      report.add(std::move(entry));
    }
  }

  if (json) report.write(std::cout);

  if (!all_identical) {
    std::fprintf(stderr, "\nFAIL: a parallel run diverged from serial\n");
    return 1;
  }
  std::fprintf(out, "\nall parallel runs bit-identical to the serial baseline\n");
  return 0;
}
