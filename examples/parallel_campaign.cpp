// The paper's Fig. 1 verification loop at scale: a batch of properties run
// through the sharded campaign engine, serial first and then on the
// thread pool — same bits out, less wall-clock in.
//
//   $ ./examples/parallel_campaign [threads] [seeds] [auto|drct|viapsl|vm]
//                                  [--checkpoint-stride=N]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "abv/campaign.hpp"
#include "spec/parser.hpp"
#include "support/args.hpp"

namespace {

constexpr const char* kUsage =
    "usage: parallel_campaign [threads] [seeds] [auto|drct|viapsl|vm]\n"
    "                         [--checkpoint-stride=N]\n"
    "                         [--workers=N] [--worker-timeout-ms=N]\n"
    "                         [--worker-retries=N] [--allow-partial=on|off]\n"
    "\n"
    "  threads              worker threads for the parallel run (default:\n"
    "                       hardware concurrency)\n"
    "  seeds                seeds per campaign (default 24)\n"
    "  backend              monitor construction (default auto)\n"
    "  --checkpoint-stride=N  events between checkpoints on each valid\n"
    "                       trace for suffix-only mutant replay (default:\n"
    "                       the engine's, see abv::CampaignOptions; 0 =\n"
    "                       full replay; result-neutral — the runs stay\n"
    "                       bit-identical at any stride)\n"

    "  --workers=N          additionally run the campaigns across N worker\n"
    "                       subprocesses (exec'd copies of this binary\n"
    "                       speaking the wire format on pipes) and compare\n"
    "                       against the in-process runs (default 0: skip)\n"
    "  --worker-timeout-ms=N  supervision deadline per worker frame; a\n"
    "                       worker that stalls longer is killed and retried\n"
    "                       (default 0: wait forever)\n"
    "  --worker-retries=N   fresh re-dispatches of a failed worker's shards\n"
    "                       before giving up (default 0)\n"
    "  --allow-partial=on|off  absorb exhausted workers as a degraded\n"
    "                       result instead of failing the run (default off)\n"
    "  --help               print this text and exit\n"
    "\n"
    "exit status: 0 all runs bit-identical, 1 mismatch, 2 usage error.\n";

int usage_error(const char* fmt, const char* what) {
  std::fprintf(stderr, fmt, what);
  std::fprintf(stderr, "\n%s", kUsage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace loom;
  // Hidden worker mode: the --workers=N run execs this same binary with
  // --worker; the child speaks the wire protocol on stdin/stdout.
  if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0) {
    return abv::run_campaign_worker(0, 1);
  }
  // Flags may appear anywhere; positionals keep their order.
  std::size_t checkpoint_stride = abv::CampaignOptions{}.checkpoint_stride;
  std::size_t workers = 0;
  std::size_t worker_timeout_ms = 0;
  std::size_t worker_retries = 0;
  bool allow_partial = false;
  std::vector<char*> positional = {argv[0]};
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--help") == 0) {
      std::printf("%s", kUsage);
      return 0;
    } else if (std::strncmp(argv[k], "--workers=", 10) == 0) {
      const auto parsed = support::parse_positive(argv[k] + 10);
      if (!parsed) {
        return usage_error("bad --workers value (want a positive count): %s\n",
                           argv[k] + 10);
      }
      workers = *parsed;
    } else if (std::strncmp(argv[k], "--worker-timeout-ms=", 20) == 0) {
      const auto parsed = support::parse_nonneg(argv[k] + 20);
      if (!parsed) {
        return usage_error(
            "bad --worker-timeout-ms value (want a count, 0 = off): %s\n",
            argv[k] + 20);
      }
      worker_timeout_ms = *parsed;
    } else if (std::strncmp(argv[k], "--worker-retries=", 17) == 0) {
      const auto parsed = support::parse_nonneg(argv[k] + 17);
      if (!parsed) {
        return usage_error(
            "bad --worker-retries value (want a count, 0 = off): %s\n",
            argv[k] + 17);
      }
      worker_retries = *parsed;
    } else if (std::strncmp(argv[k], "--allow-partial=", 16) == 0) {
      const auto parsed = support::parse_on_off(argv[k] + 16);
      if (!parsed) {
        return usage_error("bad --allow-partial value (want on|off): %s\n",
                           argv[k] + 16);
      }
      allow_partial = *parsed;
    } else if (std::strncmp(argv[k], "--checkpoint-stride=", 20) == 0) {
      const auto parsed = support::parse_nonneg(argv[k] + 20);
      if (!parsed) {
        return usage_error(
            "bad --checkpoint-stride value (want a count, 0 = off): %s\n",
            argv[k] + 20);
      }
      checkpoint_stride = *parsed;
    } else if (std::strncmp(argv[k], "--", 2) == 0) {
      return usage_error("unknown option: %s\n", argv[k]);
    } else {
      positional.push_back(argv[k]);
    }
  }
  const int pos_argc = static_cast<int>(positional.size());
  char** pos_argv = positional.data();
  // A present-but-malformed positional ("5x", "99999999999999999999") is a
  // usage error, not a silent fallback to the default.
  const auto threads_arg = support::parse_count(
      pos_argc, pos_argv, 1, std::max(1u, std::thread::hardware_concurrency()));
  if (!threads_arg) {
    return usage_error("bad threads '%s' (want a positive count)\n",
                       pos_argv[1]);
  }
  const std::size_t threads = *threads_arg;
  const auto seeds_arg = support::parse_count(pos_argc, pos_argv, 2, 24);
  if (!seeds_arg) {
    return usage_error("bad seeds '%s' (want a positive count)\n", pos_argv[2]);
  }
  const std::size_t seeds = *seeds_arg;
  const auto backend = mon::parse_backend_arg(pos_argc, pos_argv, 3);
  if (!backend) {
    return usage_error("bad backend '%s' (want auto, drct, viapsl or vm)\n",
                       pos_argv[3]);
  }

  // The access-control flavoured property set of the evaluation.
  const char* sources[] = {
      "(({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)",
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)",
      "(p[2,3] => q[1,4] < r, 1ms)",
      "(n << i, true)",
  };

  spec::Alphabet ab;
  std::vector<spec::Property> properties;
  for (const char* source : sources) {
    support::DiagnosticSink sink;
    auto p = spec::parse_property(source, ab, sink);
    if (!p) {
      std::fprintf(stderr, "parse error in %s:\n%s\n", source,
                   sink.to_string().c_str());
      return 1;
    }
    properties.push_back(*p);
  }
  std::vector<const spec::Property*> ptrs;
  for (const auto& p : properties) ptrs.push_back(&p);

  abv::CampaignOptions opt;
  opt.seeds = seeds;
  opt.stimuli.rounds = 5;
  opt.stimuli.noise_permille = 100;
  opt.mutants_per_kind = 16;
  opt.shard_size = 1;
  opt.backend = *backend;
  opt.checkpoint_stride = checkpoint_stride;

  // Show what the campaigns will execute: each property's translate-once
  // plan, rendered through the plan's own interned alphabet snapshot (no
  // shared-Alphabet access needed once a plan exists).
  const auto plans = abv::compile_property_plans(ptrs, ab, opt);
  for (const auto& plan : plans) {
    std::string names;
    plan.compiled.alphabet().for_each([&](std::size_t n) {
      if (!names.empty()) names += ", ";
      names += plan.compiled.text_of(static_cast<spec::Name>(n));
    });
    std::printf("plan %zu: backend %s, %zu-name alphabet {%s}\n",
                plan.index, mon::to_string(plan.compiled.chosen()),
                plan.compiled.alphabet().count(), names.c_str());
  }
  std::printf("\n");

  const auto timed = [&](std::size_t t) {
    opt.threads = t;
    const auto begin = std::chrono::steady_clock::now();
    auto results = abv::run_campaigns(ptrs, ab, opt);
    const auto end = std::chrono::steady_clock::now();
    return std::make_pair(std::move(results),
                          std::chrono::duration<double>(end - begin).count());
  };

  std::printf("running %zu campaigns × %zu seeds, serial baseline...\n",
              properties.size(), seeds);
  const auto [serial, serial_s] = timed(1);
  std::printf("running the same campaigns on %zu threads...\n\n", threads);
  const auto [parallel, parallel_s] = timed(threads);

  bool identical = true;
  for (std::size_t i = 0; i < properties.size(); ++i) {
    std::printf("--- %s\n%s\n", sources[i],
                parallel[i].report(ab).c_str());
    identical =
        identical && serial[i].report(ab) == parallel[i].report(ab);
  }

  // Optional third leg: the same campaigns sharded across exec'd worker
  // subprocesses of this very binary — the sixth invariant live on the
  // command line.
  if (workers > 0) {
    std::printf("running the same campaigns across %zu worker processes...\n",
                workers);
    opt.threads = threads;
    opt.workers = workers;
    opt.worker_command = {argv[0], "--worker"};
    opt.worker_timeout_ms = worker_timeout_ms;
    opt.worker_retries = worker_retries;
    opt.allow_partial = allow_partial;
    const auto begin = std::chrono::steady_clock::now();
    std::vector<abv::CampaignResult> cross;
    try {
      cross = abv::run_campaigns(ptrs, ab, opt);
    } catch (const abv::WorkerFailure& e) {
      std::fprintf(stderr, "worker failure: %s\n", e.what());
      return 1;
    }
    const auto end = std::chrono::steady_clock::now();
    bool cross_identical = true;
    bool degraded = false;
    for (std::size_t i = 0; i < properties.size(); ++i) {
      cross_identical =
          cross_identical && serial[i].report(ab) == cross[i].report(ab);
      degraded = degraded || cross[i].degraded();
    }
    if (degraded) {
      // An absorbed worker loss: say which shards never ran (the reports
      // cannot match the serial leg, so don't count that as the bug).
      for (std::size_t i = 0; i < properties.size(); ++i) {
        if (cross[i].degraded()) {
          std::printf("--- %s (degraded)\n%s\n", sources[i],
                      cross[i].report(ab).c_str());
        }
      }
    }
    std::printf("cross-process: %7.1f ms on %zu workers — %s\n\n",
                std::chrono::duration<double>(end - begin).count() * 1e3,
                workers,
                degraded         ? "DEGRADED (shards lost, see above)"
                : cross_identical ? "bit-identical to the serial run"
                                  : "MISMATCH (bug!)");
    identical = identical && (cross_identical || degraded);
    opt.workers = 0;
    opt.worker_command.clear();
  }

  std::size_t stamped = 0;
  std::size_t reused = 0;
  std::size_t checkpoint_hits = 0;
  std::size_t events_skipped = 0;
  std::size_t events_observed = 0;
  for (const auto& r : parallel) {
    stamped += r.compile_stats.instances_stamped;
    reused += r.compile_stats.instance_reuses;
    checkpoint_hits += r.checkpoint_hits;
    events_skipped += r.events_skipped;
    events_observed += static_cast<std::size_t>(r.monitor_stats.events);
  }
  std::printf(
      "compiled plans: %zu properties translated once each; "
      "%zu instances stamped, %zu reset-reused\n",
      properties.size(), stamped, reused);
  if (checkpoint_stride > 0) {
    // A restored rung carries its prefix's stats, so the monitors' event
    // count already includes every skipped event.  Guard the denominator:
    // a zero-seed / empty-trace campaign observes nothing, and "0%" beats
    // printing nan.
    std::printf(
        "incremental replay (stride %zu): %zu checkpoint restores skipped "
        "%zu prefix events (%.0f%% of the %zu the monitors would have "
        "stepped)\n",
        checkpoint_stride, checkpoint_hits, events_skipped,
        events_observed == 0
            ? 0.0
            : 100.0 * static_cast<double>(events_skipped) /
                  static_cast<double>(events_observed),
        events_observed);
  }
  std::printf("serial:   %7.1f ms\n", serial_s * 1e3);
  std::printf("parallel: %7.1f ms  (%.2fx on %zu threads)\n",
              parallel_s * 1e3, serial_s / parallel_s, threads);
  std::printf("determinism: %s\n",
              identical ? "parallel run bit-identical to serial"
                        : "MISMATCH (bug!)");
  return identical ? 0 : 1;
}
