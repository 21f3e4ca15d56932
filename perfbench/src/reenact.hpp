// The traced re-enactment: the campaign's per-unit loop (the paper's Fig. 1
// loop) driven through the public call of each layer, so the benchmark can
// time every call from outside the library.
//
// For every property and seed it generates the valid trace (abv), records
// the checkpoint ladder and steps the valid trace (mon), checks it with the
// reference oracle (spec), then mutates (abv), checks (spec) and replays
// (mon) each mutant from its floor rung, drawing the same support::Rng
// streams abv::run_campaigns draws.  cross_check() holds the result to the
// engine's, so the per-phase shares always describe the engine's real work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "abv/campaign.hpp"
#include "mon/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

// One span name per layer call the re-enactment times.
enum class Phase : std::uint8_t {
  Campaign,   // abv.campaign: the whole re-enacted campaign (root span)
  Stimuli,    // abv.stimuli: generate_valid
  Ladder,     // mon.ladder: observe + snapshot every checkpoint_stride
  Valid,      // mon.valid: stepping the valid trace + finish
  Mutate,     // abv.mutate: mutate_into
  Reference,  // spec.reference: reference_check with the compiled plan
  Replay,     // mon.replay: restore + observe_batch + finish
  Restore,    // mon.restore: restore, a child of mon.replay
  kCount,
};
constexpr std::size_t kPhases = static_cast<std::size_t>(Phase::kCount);
const char* phase_name(Phase p);

// Spans recorded in memory (up to a cap; totals keep counting past it) and
// written out as JSON lines when the run ends.  Spans of one campaign share
// its index; each names the span that caused it.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  struct Token {
    std::uint32_t id = kNone;
    std::int64_t start = 0;
    Phase phase = Phase::Campaign;
  };

  explicit Tracer(std::size_t max_spans) : max_spans_(max_spans) {}

  void begin_campaign(std::uint64_t index) { campaign_ = index; }
  Token open(Phase p, std::uint32_t parent = kNone);
  void close(const Token& t);

  std::int64_t total_ns(Phase p) const {
    return total_ns_[static_cast<std::size_t>(p)];
  }
  std::uint64_t count(Phase p) const {
    return count_[static_cast<std::size_t>(p)];
  }
  std::size_t recorded() const { return spans_.size(); }
  // Writes every recorded span as one JSON object per line; false when the
  // file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::int64_t start;
    std::int64_t end;
    std::uint64_t campaign;
    std::uint32_t parent;
    Phase phase;
  };
  std::size_t max_spans_;
  std::uint64_t campaign_ = 0;
  std::vector<Span> spans_;
  std::int64_t total_ns_[kPhases] = {};
  std::uint64_t count_[kPhases] = {};
};

// What the engine reports per property, re-derived by the re-enactment.
struct PropertyOutcome {
  std::size_t traces = 0;
  std::size_t events = 0;
  std::size_t valid_accepted = 0;
  std::size_t oracle_disagreements = 0;
  loom::abv::MutationStats mutation[5];
  loom::mon::MonitorStats monitor_stats;
};

// Exact work counts of one re-enacted campaign.
struct WorkCounts {
  std::uint64_t seed_traces = 0;     // (property, seed) valid traces
  std::uint64_t valid_events = 0;    // events generated
  std::uint64_t ladder_events = 0;   // events observed building ladders
  std::uint64_t snapshot_bytes = 0;  // ladder rungs: 8 per word + strings
  std::uint64_t mutate_calls = 0;
  std::uint64_t mutants = 0;               // mutate_into produced a trace
  std::uint64_t reference_events = 0;      // oracle input, valid + mutants
  std::uint64_t reference_mutant_events = 0;
  std::uint64_t replays = 0;        // reference-rejected mutants replayed
  std::uint64_t replay_events = 0;  // suffix events stepped
  std::uint64_t restores = 0;
  std::uint64_t input_digest = 0;   // FNV-1a over every valid trace

  void add(const WorkCounts& o);
  bool operator==(const WorkCounts&) const = default;
};

struct Reenactment {
  std::vector<PropertyOutcome> properties;
  WorkCounts counts;
};

// Re-enacts one campaign with `options` over the set-up properties; with
// kTraced every layer call is a span in `tracer` (unused otherwise).
template <bool kTraced>
Reenactment reenact(Setup& setup, const loom::abv::CampaignOptions& options,
                    Tracer* tracer);

// "" when the re-enactment matches the engine's results exactly (per-kind
// MutationStats, MonitorStats and the valid-phase counts), else a
// description of the first difference.
std::string cross_check(const Reenactment& r,
                        const std::vector<loom::abv::CampaignResult>& engine);

}  // namespace perfbench
