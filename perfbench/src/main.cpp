// loom's benchmark: one workload per invocation, as a closed loop — a
// single client keeps one campaign (abv::run_campaigns, the paper's Fig. 1
// loop) outstanding and runs campaigns back to back.
//
//   loom_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out DIR] [--git-sha SHA]
//   loom_perfbench --self-test
//
// --trace 0 times untraced campaigns and prints the end-to-end metrics;
// --trace 1 re-enacts a fixed set of campaigns through each layer's public
// calls (reenact.hpp) and prints the per-layer metrics.  Either way the last
// line of standard output is one JSON object {correct, attempted, failed,
// metrics}; the human-readable table and the fingerprint go to stderr.
//
// Exit status: 0 success, 1 a correctness check failed (the JSON line still
// prints), 2 usage error, 3 the host has fewer CPUs than the workload runs
// threads or workers, 4 any other error.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "abv/campaign.hpp"
#include "reenact.hpp"
#include "wire/payload.hpp"
#include "wire/process.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using loom::abv::CampaignOptions;
using loom::abv::CampaignResult;
using Results = std::vector<CampaignResult>;

// Set-ups of a traced run; the setup.* metrics report their median.
constexpr int kSetupRepeats = 21;
// Campaigns of an end-to-end run between two set-up samples, and between
// two campaigns it cross-checks against the re-enactment.
constexpr std::size_t kWindow = 100;
// Raw spans kept for the span file (totals keep counting past the cap).
constexpr std::size_t kMaxSpans = 50000;
// The thread count support.thread_pool.* compares against one thread.
constexpr std::size_t kPoolThreads = 4;
// Cross-process settings of wire.process.overhead_ms (workers_short's).
constexpr std::size_t kOverheadWorkers = 2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU time of this process and every child it has reaped.
double cpu_seconds() {
  double total = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                        ru.ru_stime.tv_usec);
  }
  return total;
}

// Peak resident memory of this process image.  VmHWM, unlike ru_maxrss,
// starts afresh at exec, so the launching process's footprint cannot leak
// into it.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::size_t cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Host speed.  The CPUs of a shared host run the same code up to 1.6x
// slower or faster from one second or minute to the next, as other tenants
// come and go, and loom's campaigns slow down with them.  Two fixed
// reference kernels that owe nothing to loom run between timed calls: a
// branchy one (fill 4096 integers from a fixed pseudo-random stream, sort
// them, binary-search 586 of them) and a high-IPC one (eight rounds of a
// 64-bit mixing function over 4096 independent lanes).  Under contention
// the first slows less than the campaigns and the second more; the
// geometric mean of their slow-downs tracks the campaigns' own (on a shared
// 4-vCPU Xeon host, correlation 0.99 on mutants_long, log-log slope 1.15).
// A timed call's times are divided by the mean slow-down of the passes just
// before and just after it, against kSortNs and kMixNs, so the metrics read
// as on a host that runs the kernels at those speeds.  A change to loom
// moves the scaled metrics exactly as it moves the raw ones, which stderr
// also shows.
constexpr double kSortNs = 80.0;  // ns per element
constexpr double kMixNs = 1.5;    // ns per lane and round

class SpeedProbe {
 public:
  struct Pass {
    double sort_ns = 0, mix_ns = 0;  // per element
  };

  // One pass of each kernel.
  Pass run() {
    Pass p;
    auto t0 = Clock::now();
    for (auto& e : keys_) e = static_cast<std::uint32_t>(mix(++x_));
    std::sort(keys_.begin(), keys_.end());
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < keys_.size(); k += 7) {
      acc += static_cast<std::uint64_t>(
          std::lower_bound(keys_.begin(), keys_.end(), keys_[k] ^ 0x5555u) -
          keys_.begin());
    }
    p.sort_ns = 1e9 * seconds_since(t0) / static_cast<double>(keys_.size());

    t0 = Clock::now();
    for (int round = 0; round < kMixRounds; ++round) {
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        lanes_[i] = mix(lanes_[i] + i);
      }
    }
    p.mix_ns = 1e9 * seconds_since(t0) /
               static_cast<double>(kMixRounds * lanes_.size());
    sink_ = acc + lanes_[acc % lanes_.size()];
    return p;
  }

  // The factor that turns the times of a call between passes a and b into
  // reference-speed ones.
  static double scale(const Pass& a, const Pass& b) {
    const double sort = (a.sort_ns + b.sort_ns) / 2 / kSortNs;
    const double mix = (a.mix_ns + b.mix_ns) / 2 / kMixNs;
    return 1.0 / std::sqrt(sort * mix);
  }

 private:
  static constexpr int kMixRounds = 8;
  static std::uint64_t mix(std::uint64_t z) {  // splitmix64's finaliser
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::vector<std::uint32_t> keys_ = std::vector<std::uint32_t>(4096);
  std::vector<std::uint64_t> lanes_ = std::vector<std::uint64_t>(4096, 1);
  std::uint64_t x_ = 7;
  volatile std::uint64_t sink_ = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool checks_hold = true;  // checks beyond the per-campaign ones
  std::vector<Metric> metrics;

  void fail_check(const std::string& what) {
    std::fprintf(stderr, "correctness check failed: %s\n", what.c_str());
    checks_hold = false;
  }
  bool correct() const { return failed == 0 && checks_hold; }
};

struct Fingerprint {
  std::size_t nproc = 0;
  std::string git_sha = "unknown";
};

std::string fingerprint_json(const Fingerprint& f) {
  return "{\"nproc\": " + std::to_string(f.nproc) +
         ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
         "\", \"compiler\": \"" PERFBENCH_COMPILER "\", \"git_sha\": \"" +
         f.git_sha + "\"}";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const Outcome& o) {
  std::string out = "{\"correct\": ";
  out += o.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

// A campaign passes when it ran (no WorkerFailure or other throw), is not
// degraded, every result is ok(), and its counts add up: one valid trace
// per seed, and every reference-rejected mutant either detected or missed.
bool run_checked(Setup& s, const CampaignOptions& o, Results& results) {
  try {
    results = loom::abv::run_campaigns(s.ptrs, s.ab, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign (first_seed %llu) threw: %s\n",
                 static_cast<unsigned long long>(o.first_seed), e.what());
    results.clear();
    return false;
  }
  if (results.size() != s.ptrs.size()) return false;
  for (const auto& r : results) {
    if (!r.ok() || r.degraded() || r.traces != o.seeds) return false;
    for (const auto& m : r.mutation) {
      if (m.detected + m.missed != m.invalid || m.invalid > m.applied ||
          m.applied > o.seeds * o.mutants_per_kind) {
        return false;
      }
    }
  }
  return true;
}

std::string reports(const Setup& s, const Results& results) {
  std::string text;
  for (const auto& r : results) text += r.report(s.ab);
  return text;
}

std::size_t mutants_applied(const Results& results) {
  std::size_t n = 0;
  for (const auto& r : results) {
    for (const auto& m : r.mutation) n += m.applied;
  }
  return n;
}

// kSetupRepeats fresh set-ups; returns the last one and the median parse
// and compile times.
std::unique_ptr<Setup> median_setup(const Workload& w, std::uint64_t seed,
                                    double& parse_s, double& compile_s) {
  std::vector<double> parse, compile;
  std::unique_ptr<Setup> s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    s = set_up(w, seed);
    parse.push_back(s->parse_s);
    compile.push_back(s->compile_s);
  }
  parse_s = quantile(parse, 0.5);
  compile_s = quantile(compile, 0.5);
  return s;
}

// Invariants 1 (serial ≡ parallel) and 6 (in-process ≡ cross-process): one
// seeds_wide and one workers_short campaign re-run serially in process must
// print the same report() text byte for byte.
void check_invariants(std::uint64_t seed, Outcome& out) {
  for (const char* name : {"seeds_wide", "workers_short"}) {
    const Workload& w = *find_workload(name);
    const auto s = set_up(w, seed);
    CampaignOptions serial = campaign_options(w, seed, 0);
    serial.threads = 1;
    serial.workers = 0;
    Results engine, reference;
    if (!run_checked(*s, campaign_options(w, seed, 0), engine) ||
        !run_checked(*s, serial, reference)) {
      out.fail_check(std::string(name) + " invariant campaign failed");
    } else if (reports(*s, engine) != reports(*s, reference)) {
      out.fail_check(std::string(name) +
                     " report differs from the serial in-process run");
    }
  }
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics of untraced campaigns.

Outcome run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  Outcome out;
  // Every timed call (a set-up or a campaign) sits between two passes of
  // SpeedProbe's kernels, and its times are scaled by the host speed the
  // two passes measured (see SpeedProbe).
  SpeedProbe probe;
  // setup_s is the median of the set-up before the run and one after every
  // kWindow campaigns, so it samples the host over the whole run.
  std::vector<double> setups, raw_setups, scales;
  SpeedProbe::Pass before = probe.run();
  const auto timed_set_up = [&] {
    auto fresh = set_up(w, seed);
    const SpeedProbe::Pass after = probe.run();
    const double f = SpeedProbe::scale(before, after);
    raw_setups.push_back(fresh->total_s());
    setups.push_back(fresh->total_s() * f);
    before = after;
    return fresh;
  };
  const auto s = timed_set_up();

  // Warm-up: the first campaigns of a fresh process run measurably slower.
  Results results;
  const double warm_s = std::min(1.0, 0.1 * seconds);
  const auto warm0 = Clock::now();
  for (std::size_t i = 0; i < 3 || seconds_since(warm0) < warm_s; ++i) {
    run_checked(*s, campaign_options(w, seed, i), results);
    before = probe.run();
  }

  // The timed campaigns, back to back.  Rates divide by the campaigns' own
  // (scaled) wall time; the percentiles are over every timed campaign.
  std::vector<double> walls, raw_walls, cpus, raw_cpus;
  std::size_t applied = 0;
  // The first campaign of every kWindow, kept for the cross-check below.
  std::vector<std::pair<std::size_t, Results>> kept;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const bool ok = run_checked(*s, campaign_options(w, seed, i), results);
    const double wall_s = seconds_since(t0);
    const double cpu_s = cpu_seconds() - cpu0;
    const SpeedProbe::Pass after = probe.run();
    const double f = SpeedProbe::scale(before, after);
    before = after;
    scales.push_back(f);
    raw_walls.push_back(wall_s);
    walls.push_back(wall_s * f);
    raw_cpus.push_back(cpu_s);
    cpus.push_back(cpu_s * f);
    applied += mutants_applied(results);
    ++out.attempted;
    if (!ok) ++out.failed;
    if (i % kWindow == 0 && ok) kept.emplace_back(i, std::move(results));
    if ((i + 1) % kWindow == 0) {
      if (seconds_since(start) >= seconds) break;
      timed_set_up();
    }
  }
  const double wall = seconds_since(start);
  const double rss = peak_rss_mb();
  check_invariants(seed, out);
  // The first campaign of every kWindow must equal the literal per-unit
  // loop (an untraced re-enactment) exactly.
  for (const auto& [i, engine] : kept) {
    const std::string diff = cross_check(
        reenact<false>(*s, campaign_options(w, seed, i), nullptr), engine);
    if (!diff.empty()) {
      ++out.failed;
      std::fprintf(stderr, "campaign %zu: %s\n", i, diff.c_str());
    }
  }

  const auto sum = [](const std::vector<double>& v) {
    double total = 0;
    for (double x : v) total += x;
    return total;
  };
  const double n = static_cast<double>(out.attempted);
  const double units = n * static_cast<double>(units_per_campaign(w));
  const auto metrics = [&](const std::vector<double>& wall_v,
                           const std::vector<double>& cpu_v,
                           const std::vector<double>& setup_v) {
    return std::vector<Metric>{
        {"mutants_per_s", static_cast<double>(applied) / sum(wall_v), "1/s"},
        {"units_per_s", units / sum(wall_v), "1/s"},
        {"campaign_ms_p50", 1e3 * quantile(wall_v, 0.5), "ms"},
        {"campaign_ms_p90", 1e3 * quantile(wall_v, 0.9), "ms"},
        {"cpu_ms_per_campaign", 1e3 * sum(cpu_v) / n, "ms"},
        {"peak_rss_mb", rss, "MB"},
        {"setup_s", quantile(setup_v, 0.5), "s"},
    };
  };
  out.metrics = metrics(walls, cpus, setups);
  std::fprintf(stderr,
               "host speed: timings scaled by %.3f (median over campaigns; "
               "quartiles %.3f..%.3f); as measured:\n",
               quantile(scales, 0.5), quantile(scales, 0.25),
               quantile(scales, 0.75));
  for (const Metric& m : metrics(raw_walls, raw_cpus, raw_setups)) {
    std::fprintf(stderr, "  raw %-32s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  std::fprintf(stderr,
               "%zu campaigns in %.3f s; fail_ratio %.6g (%zu/%zu)\n",
               out.attempted, wall,
               ratio(static_cast<double>(out.failed),
                     static_cast<double>(out.attempted)),
               out.failed, out.attempted);
  return out;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics from the re-enactment and the layer probes.

Outcome run_traced(const Workload& w, std::uint64_t seed, double seconds,
                   const std::string& span_path) {
  Outcome out;
  double parse_s = 0, compile_s = 0;
  auto s = median_setup(w, seed, parse_s, compile_s);
  const std::size_t k_campaigns = w.traced_campaigns;
  std::vector<CampaignOptions> serial(k_campaigns);
  for (std::size_t i = 0; i < k_campaigns; ++i) {
    serial[i] = campaign_options(w, seed, i);
    serial[i].threads = 1;
    serial[i].workers = 0;
  }

  // Re-enactment passes over the fixed campaign set: the engine (serial,
  // in process), the untraced and the traced re-enactment, each
  // cross-checked against the engine.  Counts come from the first pass.
  Tracer tracer(kMaxSpans);
  std::vector<Results> engine_results(k_campaigns);
  WorkCounts first, all;
  double engine_s = 0, untraced_s = 0, traced_s = 0;
  std::size_t passes = 0;
  const auto b0 = Clock::now();
  do {
    for (std::size_t i = 0; i < k_campaigns; ++i) {
      Results engine;
      auto t0 = Clock::now();
      const bool ok = run_checked(*s, serial[i], engine);
      engine_s += seconds_since(t0);
      // Alternate which re-enactment runs first.
      Reenactment traced, untraced;
      for (int leg = 0; leg < 2; ++leg) {
        t0 = Clock::now();
        if ((leg == 0) == (passes % 2 == 0)) {
          tracer.begin_campaign(passes * k_campaigns + i);
          traced = reenact<true>(*s, serial[i], &tracer);
          traced_s += seconds_since(t0);
        } else {
          untraced = reenact<false>(*s, serial[i], nullptr);
          untraced_s += seconds_since(t0);
        }
      }
      std::string diff = cross_check(traced, engine);
      if (diff.empty()) diff = cross_check(untraced, engine);
      ++out.attempted;
      if (!ok || !diff.empty()) {
        ++out.failed;
        if (!diff.empty()) std::fprintf(stderr, "cross-check: %s\n", diff.c_str());
      }
      all.add(traced.counts);
      if (passes == 0) {
        first.add(traced.counts);
        engine_results[i] = std::move(engine);
      }
    }
    ++passes;
  } while (seconds_since(b0) < 0.5 * seconds);

  // The same campaigns on the thread pool against one thread.
  const std::size_t pool_threads = std::min(kPoolThreads, cpus_available());
  double wall1 = 0, wall_n = 0, cpu1 = 0, cpu_n = 0;
  const auto c0 = Clock::now();
  do {
    for (std::size_t i = 0; i < k_campaigns; ++i) {
      CampaignOptions pooled = serial[i];
      pooled.threads = pool_threads;
      for (const CampaignOptions* o : {&serial[i], &pooled}) {
        Results r;
        const double cpu_before = cpu_seconds();
        const auto t0 = Clock::now();
        const bool ok = run_checked(*s, *o, r);
        const double wall = seconds_since(t0);
        const double cpu = cpu_seconds() - cpu_before;
        (o == &pooled ? wall_n : wall1) += wall;
        (o == &pooled ? cpu_n : cpu1) += cpu;
        if (!ok || reports(*s, r) != reports(*s, engine_results[i])) {
          out.fail_check("thread-pool run differs from the serial run");
        }
      }
    }
  } while (seconds_since(c0) < 0.15 * seconds);

  // The wire codec on the campaigns' own results.
  loom::wire::Encoder enc;
  std::size_t campaign_bytes = 0;
  for (const auto& results : engine_results) {
    for (const auto& r : results) {
      enc.clear();
      loom::wire::encode_result(enc, r);
      campaign_bytes += enc.size();
      loom::wire::Decoder d(enc.bytes());
      CampaignResult back;
      if (!loom::wire::decode_result(d, back) || !d.exhausted() ||
          back.report(s->ab, true) != r.report(s->ab, true)) {
        out.fail_check("wire round trip changed a campaign result");
      }
    }
  }
  double encode_s = 0, decode_s = 0;
  std::size_t codec_bytes = 0;
  const auto d0 = Clock::now();
  do {
    for (const auto& results : engine_results) {
      for (const auto& r : results) {
        auto t0 = Clock::now();
        enc.clear();
        loom::wire::encode_result(enc, r);
        encode_s += seconds_since(t0);
        t0 = Clock::now();
        loom::wire::Decoder d(enc.bytes());
        CampaignResult back;
        loom::wire::decode_result(d, back);
        decode_s += seconds_since(t0);
        codec_bytes += enc.size();
      }
    }
  } while (seconds_since(d0) < 0.05 * seconds);

  // Worker processes: spawning and reaping a trivial fork child ...
  std::vector<double> spawn_us, reap_us;
  const auto e0 = Clock::now();
  do {
    auto t0 = Clock::now();
    loom::wire::WorkerProcess proc = loom::wire::spawn_worker(
        {}, [](int, int) { return 0; }, 0);
    spawn_us.push_back(1e6 * seconds_since(t0));
    proc.close_to_child();
    proc.close_from_child();
    int status = 0;
    t0 = Clock::now();
    if (!proc.wait_for(10000, status) ||
        loom::wire::exit_code(status) != 0) {
      out.fail_check("trivial worker did not exit cleanly");
    }
    reap_us.push_back(1e6 * seconds_since(t0));
  } while (spawn_us.size() < 20 || seconds_since(e0) < 0.05 * seconds);

  // ... and the same campaigns across worker processes against in process.
  std::vector<double> cross_ms, local_ms;
  const auto f0 = Clock::now();
  do {
    for (std::size_t i = 0; i < k_campaigns; ++i) {
      CampaignOptions cross = serial[i];
      cross.workers = kOverheadWorkers;
      cross.worker_timeout_ms = 10000;
      cross.worker_retries = 1;
      for (const CampaignOptions* o : {&serial[i], &cross}) {
        Results r;
        const auto t0 = Clock::now();
        const bool ok = run_checked(*s, *o, r);
        (o == &cross ? cross_ms : local_ms).push_back(1e3 * seconds_since(t0));
        if (!ok || reports(*s, r) != reports(*s, engine_results[i])) {
          out.fail_check("cross-process run differs from the in-process run");
        }
      }
    }
  } while (seconds_since(f0) < 0.15 * seconds);

  // Exact per-campaign counts, from the first pass.
  double ops = 0, events = 0, hits = 0, lookups = 0;
  for (const auto& results : engine_results) {
    for (const auto& r : results) {
      ops += static_cast<double>(r.monitor_stats.ops);
      events += static_cast<double>(r.monitor_stats.events);
      hits += static_cast<double>(r.trace_cache_hits);
      lookups += static_cast<double>(r.trace_cache_hits + r.trace_cache_misses);
    }
  }
  const auto ns = [&](Phase p) {
    return static_cast<double>(tracer.total_ns(p));
  };
  const auto per = [](std::uint64_t num, std::uint64_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  const double campaign_ns = ns(Phase::Campaign);
  const double replay_self_ns = ns(Phase::Replay) - ns(Phase::Restore);
  out.metrics = {
      {"abv.stimuli.share", ratio(ns(Phase::Stimuli), campaign_ns), "ratio"},
      {"abv.stimuli.ns_per_event",
       ratio(ns(Phase::Stimuli), static_cast<double>(all.valid_events)),
       "ns/event"},
      {"mon.ladder.share", ratio(ns(Phase::Ladder), campaign_ns), "ratio"},
      {"mon.ladder.ns_per_event",
       ratio(ns(Phase::Ladder), static_cast<double>(all.ladder_events)),
       "ns/event"},
      {"mon.ladder.snapshot_bytes_per_seed",
       per(first.snapshot_bytes, first.seed_traces), "B"},
      {"mon.valid.share", ratio(ns(Phase::Valid), campaign_ns), "ratio"},
      {"abv.mutate.share", ratio(ns(Phase::Mutate), campaign_ns), "ratio"},
      {"abv.mutate.ns_per_mutant",
       ratio(ns(Phase::Mutate), static_cast<double>(all.mutate_calls)),
       "ns"},
      {"spec.reference.share", ratio(ns(Phase::Reference), campaign_ns),
       "ratio"},
      {"spec.reference.ns_per_event",
       ratio(ns(Phase::Reference), static_cast<double>(all.reference_events)),
       "ns/event"},
      {"spec.reference.events_per_mutant",
       per(first.reference_mutant_events, first.mutants), "count"},
      {"mon.replay.share", ratio(ns(Phase::Replay), campaign_ns), "ratio"},
      {"mon.replay.ns_per_event",
       ratio(replay_self_ns, static_cast<double>(all.replay_events)),
       "ns/event"},
      {"mon.replay.events_per_mutant", per(first.replay_events, first.replays),
       "count"},
      {"mon.restore.ns",
       ratio(ns(Phase::Restore), static_cast<double>(all.restores)), "ns"},
      {"mon.ops_per_event", ratio(ops, events), "count"},
      {"abv.campaign.glue_share", ratio(engine_s - untraced_s, engine_s),
       "ratio"},
      {"support.thread_pool.speedup", ratio(wall1, wall_n), "ratio"},
      {"support.thread_pool.efficiency",
       ratio(wall1, wall_n) / static_cast<double>(pool_threads), "ratio"},
      {"support.thread_pool.cpu_overhead", ratio(cpu_n, cpu1) - 1, "ratio"},
      {"support.trace_cache.hit_rate", ratio(hits, lookups), "ratio"},
      {"wire.codec.encode_ns_per_byte",
       ratio(1e9 * encode_s, static_cast<double>(codec_bytes)), "ns/B"},
      {"wire.codec.decode_ns_per_byte",
       ratio(1e9 * decode_s, static_cast<double>(codec_bytes)), "ns/B"},
      {"wire.codec.bytes_per_campaign",
       ratio(static_cast<double>(campaign_bytes),
             static_cast<double>(k_campaigns)),
       "B"},
      {"wire.process.spawn_us", quantile(spawn_us, 0.5), "us"},
      {"wire.process.reap_us", quantile(reap_us, 0.5), "us"},
      {"wire.process.overhead_ms",
       quantile(cross_ms, 0.5) - quantile(local_ms, 0.5), "ms"},
      {"setup.parse_ms", 1e3 * parse_s, "ms"},
      {"setup.compile_ms", 1e3 * compile_s, "ms"},
      {"trace.overhead", ratio(traced_s, untraced_s) - 1, "ratio"},
  };
  std::uint64_t spans = 0;
  for (std::size_t p = 0; p < kPhases; ++p) {
    spans += tracer.count(static_cast<Phase>(p));
  }
  std::fprintf(stderr,
               "%zu re-enactment passes over %zu campaigns, %zu of %llu spans "
               "kept\n",
               passes, k_campaigns, tracer.recorded(),
               static_cast<unsigned long long>(spans));
  if (!span_path.empty() && !tracer.write_jsonl(span_path)) {
    std::fprintf(stderr, "cannot write %s\n", span_path.c_str());
  }
  return out;
}

// ---------------------------------------------------------------------------
// --self-test: the exact counts repeat for a seed and the inputs follow it.

struct ExactCounts {
  WorkCounts work;
  double ops = 0, events = 0, hits = 0, lookups = 0;
  std::size_t wire_bytes = 0;

  bool operator==(const ExactCounts&) const = default;
};

bool exact_counts(const Workload& w, std::uint64_t seed, ExactCounts& c) {
  auto s = set_up(w, seed);
  loom::wire::Encoder enc;
  for (std::size_t i = 0; i < 2; ++i) {
    CampaignOptions o = campaign_options(w, seed, i);
    o.threads = 1;
    o.workers = 0;
    Results engine;
    if (!run_checked(*s, o, engine)) return false;
    Tracer tracer(0);
    const Reenactment r = reenact<true>(*s, o, &tracer);
    const std::string diff = cross_check(r, engine);
    if (!diff.empty()) {
      std::fprintf(stderr, "self-test %s: %s\n", w.name, diff.c_str());
      return false;
    }
    c.work.add(r.counts);
    for (const auto& e : engine) {
      c.ops += static_cast<double>(e.monitor_stats.ops);
      c.events += static_cast<double>(e.monitor_stats.events);
      c.hits += static_cast<double>(e.trace_cache_hits);
      c.lookups += static_cast<double>(e.trace_cache_hits + e.trace_cache_misses);
      enc.clear();
      loom::wire::encode_result(enc, e);
      c.wire_bytes += enc.size();
    }
  }
  return true;
}

int self_test() {
  bool pass = true;
  for (const auto& w : workloads()) {
    ExactCounts a, b, other;
    const bool ran = exact_counts(w, 7, a) && exact_counts(w, 7, b) &&
                     exact_counts(w, 8, other);
    const bool repeat = ran && a == b;
    const bool follows_seed =
        ran && a.work.input_digest != other.work.input_digest;
    std::fprintf(stderr,
                 "self-test %-13s: campaigns %s, same seed %s, other seed %s\n",
                 w.name, ran ? "pass" : "FAIL",
                 repeat ? "repeats exactly" : "DIFFERS",
                 follows_seed ? "changes the inputs" : "KEEPS THE INPUTS");
    pass = pass && ran && repeat && follows_seed;
  }
  std::fprintf(stderr, "self-test: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

// ---------------------------------------------------------------------------

constexpr const char* kUsage =
    "usage: loom_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                      [--out DIR] [--git-sha SHA]\n"
    "       loom_perfbench --self-test\n";

int usage(const char* what) {
  std::fprintf(stderr, "%s\n%s", what, kUsage);
  return 2;
}

bool parse_u64(std::string_view text, std::uint64_t& v) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  return ec == std::errc() && end == text.data() + text.size();
}

int main_impl(int argc, char** argv) {
  std::string workload, out_dir, git_sha = "unknown";
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int k = 1; k < argc; ++k) {
    const std::string_view arg = argv[k];
    if (arg == "--self-test") return self_test();
    if (k + 1 >= argc) return usage("missing value after an option");
    const std::string_view value = argv[++k];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, seed)) return usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, seconds) || seconds == 0) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) return usage("bad --trace");
    } else if (arg == "--out") {
      out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return usage("unknown option");
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage("unknown or missing --workload");
  if (!have_seed || seconds == 0 || trace > 1) {
    return usage("--seed, --seconds and --trace are required");
  }

  Fingerprint fp;
  fp.nproc = cpus_available();
  fp.git_sha = git_sha;
  std::fprintf(stderr, "fingerprint: %s\n", fingerprint_json(fp).c_str());
  if (fp.nproc < w->cpus_needed) {
    std::fprintf(stderr,
                 "refusing %s: it runs %zu threads or workers but only %zu "
                 "CPUs are available, so its numbers would not mean what "
                 "they say\n",
                 w->name, w->cpus_needed, fp.nproc);
    return 3;
  }

  const std::string stem = out_dir.empty()
                               ? ""
                               : out_dir + "/" + w->name + "-seed" +
                                     std::to_string(seed) + "-trace" +
                                     std::to_string(trace);
  const Outcome out =
      trace == 1 ? run_traced(*w, seed, static_cast<double>(seconds),
                              stem.empty() ? "" : stem + ".spans.jsonl")
                 : run_end_to_end(*w, seed, static_cast<double>(seconds));

  for (const Metric& m : out.metrics) {
    std::fprintf(stderr, "  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  bool finite = true;
  for (const Metric& m : out.metrics) finite = finite && std::isfinite(m.value);
  if (!finite) {
    std::fprintf(stderr, "a metric is not a finite number\n");
    return 4;
  }
  const std::string json = result_json(out);
  if (!stem.empty()) {
    if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
      std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"fingerprint\": %s, \"result\": %s}\n",
                   w->name, static_cast<unsigned long long>(seed),
                   fingerprint_json(fp).c_str(), json.c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", json.c_str());
  return out.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  }
}
