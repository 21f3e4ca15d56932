#include "workloads.hpp"

#include <chrono>
#include <stdexcept>

#include "abv/stimuli.hpp"
#include "spec/parser.hpp"
#include "support/diagnostics.hpp"

namespace perfbench {
namespace {

using loom::abv::CampaignOptions;

// The two long-trace properties: a three-fragment antecedent with a ranged
// disjunctive block, and a timed chain.
constexpr const char* kAntecedent =
    "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)";
constexpr const char* kTimedChain = "(n1 => n2 < n3 < n4, 1ms)";

std::vector<Workload> make_workloads() {
  std::vector<Workload> all;

  // Few seeds, long traces, many mutants: the per-mutant loop (mutate,
  // oracle, suffix replay) does almost all the work.
  CampaignOptions longo;
  longo.seeds = 4;
  longo.stimuli.rounds = 64;
  longo.stimuli.noise_permille = 100;
  longo.mutants_per_kind = 32;
  longo.threads = 1;
  all.push_back({"mutants_long", {kAntecedent, kTimedChain}, longo, 1, 6});

  // Many seeds, one mutant per kind: generation, the checkpoint ladder and
  // the valid phase dominate, spread over the thread pool and trace cache.
  CampaignOptions wide;
  wide.seeds = 64;
  wide.stimuli.rounds = 16;
  wide.stimuli.noise_permille = 100;
  wide.mutants_per_kind = 1;
  wide.threads = 4;
  all.push_back({"seeds_wide",
                 {"(({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)",
                  kAntecedent, "(p[2,3] => q[1,4] < r, 1ms)", "(n << i, true)"},
                 wide, 4, 16});

  // Small campaigns across supervised fork-mode workers: the fixed cost of
  // spawning, draining and reaping processes dominates.
  CampaignOptions workers;
  workers.seeds = 8;
  workers.stimuli.rounds = 8;
  workers.stimuli.noise_permille = 100;
  workers.mutants_per_kind = 8;
  workers.threads = 1;
  workers.workers = 2;
  workers.worker_timeout_ms = 10000;
  workers.worker_retries = 1;
  all.push_back({"workers_short", {kAntecedent, kTimedChain}, workers, 2, 16});
  return all;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

CampaignOptions campaign_options(const Workload& w, std::uint64_t seed,
                                 std::size_t i) {
  CampaignOptions o = w.options;
  o.first_seed = seed + i * o.seeds;
  return o;
}

std::size_t units_per_campaign(const Workload& w) {
  return w.options.seeds * 6 * w.properties.size();
}

std::unique_ptr<Setup> set_up(const Workload& w, std::uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  auto s = std::make_unique<Setup>();
  auto t0 = Clock::now();
  s->properties.reserve(w.properties.size());
  for (const char* text : w.properties) {
    loom::support::DiagnosticSink sink;
    auto p = loom::spec::parse_property(text, s->ab, sink);
    if (!p) {
      throw std::runtime_error(std::string("cannot parse ") + text + ": " +
                               sink.to_string());
    }
    s->properties.push_back(std::move(*p));
  }
  for (const auto& p : s->properties) s->ptrs.push_back(&p);
  s->parse_s = seconds_since(t0);

  t0 = Clock::now();
  loom::abv::pre_intern_stimuli_names(s->ab, w.options.stimuli);
  s->intern_s = seconds_since(t0);

  t0 = Clock::now();
  s->plans = loom::abv::compile_property_plans(s->ptrs, s->ab, w.options);
  s->compile_s = seconds_since(t0);

  t0 = Clock::now();
  loom::abv::run_campaigns(s->ptrs, s->ab, campaign_options(w, seed, 0));
  s->warmup_s = seconds_since(t0);
  return s;
}

}  // namespace perfbench
