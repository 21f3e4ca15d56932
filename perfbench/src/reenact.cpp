#include "reenact.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "mon/snapshot.hpp"
#include "spec/reference.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using loom::spec::Trace;

constexpr loom::abv::MutationKind kKinds[5] = {
    loom::abv::MutationKind::Drop, loom::abv::MutationKind::Duplicate,
    loom::abv::MutationKind::SwapAdjacent,
    loom::abv::MutationKind::EarlyTrigger,
    loom::abv::MutationKind::StallDeadline};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

loom::sim::Time end_of(const Trace& t) {
  return t.empty() ? loom::sim::Time::zero() : t.back().time;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t snapshot_bytes(const loom::mon::Snapshot& s) {
  std::uint64_t bytes = 8 * s.word_count();
  for (std::size_t i = 0; i < s.string_count(); ++i) {
    bytes += s.string_at(i).size();
  }
  return bytes;
}

// Opens and closes spans only in the traced instantiation; the untraced one
// compiles to the bare layer calls.
template <bool kTraced>
struct Probe {
  Tracer* tracer;
  Tracer::Token open(Phase p, std::uint32_t parent = Tracer::kNone) {
    if constexpr (kTraced) return tracer->open(p, parent);
    return {};
  }
  void close(const Tracer::Token& t) {
    if constexpr (kTraced) tracer->close(t);
  }
};

}  // namespace

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::Campaign: return "abv.campaign";
    case Phase::Stimuli: return "abv.stimuli";
    case Phase::Ladder: return "mon.ladder";
    case Phase::Valid: return "mon.valid";
    case Phase::Mutate: return "abv.mutate";
    case Phase::Reference: return "spec.reference";
    case Phase::Replay: return "mon.replay";
    case Phase::Restore: return "mon.restore";
    case Phase::kCount: break;
  }
  return "?";
}

Tracer::Token Tracer::open(Phase p, std::uint32_t parent) {
  Token t;
  t.phase = p;
  if (spans_.size() < max_spans_) {
    t.id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({0, 0, campaign_, parent, p});
  }
  t.start = now_ns();
  if (t.id != kNone) spans_[t.id].start = t.start;
  return t;
}

void Tracer::close(const Token& t) {
  const std::int64_t end = now_ns();
  total_ns_[static_cast<std::size_t>(t.phase)] += end - t.start;
  ++count_[static_cast<std::size_t>(t.phase)];
  if (t.id != kNone) spans_[t.id].end = end;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // A root span's parent is -1.
    const long long parent = s.parent == kNone ? -1 : s.parent;
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"campaign\":%" PRIu64
                 ",\"parent\":%lld,\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 "}\n",
                 i, phase_name(s.phase), s.campaign, parent, s.start - origin,
                 s.end - origin);
  }
  return std::fclose(f) == 0;
}

void WorkCounts::add(const WorkCounts& o) {
  seed_traces += o.seed_traces;
  valid_events += o.valid_events;
  ladder_events += o.ladder_events;
  snapshot_bytes += o.snapshot_bytes;
  mutate_calls += o.mutate_calls;
  mutants += o.mutants;
  reference_events += o.reference_events;
  reference_mutant_events += o.reference_mutant_events;
  replays += o.replays;
  replay_events += o.replay_events;
  restores += o.restores;
  input_digest = fnv1a(input_digest, o.input_digest);
}

template <bool kTraced>
Reenactment reenact(Setup& setup, const loom::abv::CampaignOptions& options,
                    Tracer* tracer) {
  Probe<kTraced> probe{tracer};
  Reenactment r;
  r.properties.resize(setup.plans.size());
  WorkCounts& c = r.counts;
  c.input_digest = 0xcbf29ce484222325ULL;
  const std::size_t stride = options.checkpoint_stride;
  std::vector<loom::mon::Snapshot> rungs;
  loom::abv::MutationResult mutant;

  const auto campaign = probe.open(Phase::Campaign);
  for (std::size_t p = 0; p < setup.plans.size(); ++p) {
    const loom::spec::Property& property = *setup.ptrs[p];
    const loom::mon::CompiledProperty& compiled = setup.plans[p].compiled;
    PropertyOutcome& out = r.properties[p];
    const std::unique_ptr<loom::mon::Monitor> monitor = compiled.instantiate();
    for (std::size_t s = 0; s < options.seeds; ++s) {
      // abv: the seed's valid trace, from stream 0 of the seed.
      auto span = probe.open(Phase::Stimuli, campaign.id);
      loom::support::Rng valid_rng =
          loom::support::Rng::stream(options.first_seed + s, 0);
      const Trace valid = loom::abv::generate_valid(property, setup.ab,
                                                    valid_rng, options.stimuli);
      probe.close(span);
      ++c.seed_traces;
      c.valid_events += valid.size();
      for (const auto& ev : valid) {
        c.input_digest = fnv1a(c.input_digest, ev.name);
        c.input_digest = fnv1a(c.input_digest, ev.time.picoseconds());
      }

      // mon: the checkpoint ladder, one snapshot every `stride` events.
      const std::size_t rung_count = stride == 0 ? 0 : valid.size() / stride;
      if (rung_count > 0) {
        span = probe.open(Phase::Ladder, campaign.id);
        if (rungs.size() < rung_count) rungs.resize(rung_count);
        monitor->reset();
        for (std::size_t i = 0; i < rung_count * stride; ++i) {
          monitor->observe(valid[i].name, valid[i].time);
          if ((i + 1) % stride == 0) monitor->snapshot(rungs[i / stride]);
        }
        probe.close(span);
        c.ladder_events += rung_count * stride;
        for (std::size_t k = 0; k < rung_count; ++k) {
          c.snapshot_bytes += snapshot_bytes(rungs[k]);
        }
      }

      // mon: the valid phase.
      span = probe.open(Phase::Valid, campaign.id);
      monitor->reset();
      for (const auto& ev : valid) monitor->observe(ev.name, ev.time);
      monitor->finish(end_of(valid));
      probe.close(span);

      // spec: the oracle on the valid trace.
      span = probe.open(Phase::Reference, campaign.id);
      const auto ref = loom::spec::reference_check(property, compiled.plan(),
                                                   valid, end_of(valid));
      probe.close(span);
      c.reference_events += valid.size();
      ++out.traces;
      out.events += valid.size();
      const bool monitor_ok =
          monitor->verdict() != loom::mon::Verdict::Violated;
      if (monitor_ok && !ref.rejected()) ++out.valid_accepted;
      if (monitor_ok == ref.rejected()) ++out.oracle_disagreements;
      out.monitor_stats.merge(monitor->stats());

      for (std::size_t k = 0; k < 5; ++k) {
        loom::abv::MutationStats& stats = out.mutation[k];
        loom::support::Rng rng =
            loom::support::Rng::stream(options.first_seed + s, k + 1);
        for (std::size_t m = 0; m < options.mutants_per_kind; ++m) {
          // abv: one mutant into the reused buffer.
          span = probe.open(Phase::Mutate, campaign.id);
          const bool applied = loom::abv::mutate_into(
              valid, kKinds[k], property, compiled.alphabet(), rng, mutant);
          probe.close(span);
          ++c.mutate_calls;
          if (!applied) continue;
          ++stats.applied;
          ++c.mutants;

          // spec: the oracle decides whether the mutant is a violation.
          span = probe.open(Phase::Reference, campaign.id);
          const auto mref = loom::spec::reference_check(
              property, compiled.plan(), mutant.trace, end_of(mutant.trace));
          probe.close(span);
          c.reference_events += mutant.trace.size();
          c.reference_mutant_events += mutant.trace.size();
          if (!mref.rejected()) continue;
          ++stats.invalid;

          // mon: replay the suffix from the floor rung at or below the
          // mutant's divergence position.
          const std::size_t floor =
              stride == 0 ? 0 : std::min(mutant.position / stride, rung_count);
          const std::size_t begin = floor * stride;
          const auto replay = probe.open(Phase::Replay, campaign.id);
          if (floor > 0) {
            const auto restore = probe.open(Phase::Restore, replay.id);
            monitor->restore(rungs[floor - 1]);
            probe.close(restore);
          } else {
            monitor->reset();
          }
          monitor->observe_batch(mutant.trace.data() + begin,
                                 mutant.trace.data() + mutant.trace.size());
          monitor->finish(end_of(mutant.trace));
          probe.close(replay);
          ++c.replays;
          c.replay_events += mutant.trace.size() - begin;
          if (floor > 0) ++c.restores;
          if (monitor->verdict() == loom::mon::Verdict::Violated) {
            ++stats.detected;
          } else {
            ++stats.missed;
          }
          out.monitor_stats.merge(monitor->stats());
        }
      }
    }
  }
  probe.close(campaign);
  return r;
}

template Reenactment reenact<true>(Setup&, const loom::abv::CampaignOptions&,
                                   Tracer*);
template Reenactment reenact<false>(Setup&, const loom::abv::CampaignOptions&,
                                    Tracer*);

std::string cross_check(const Reenactment& r,
                        const std::vector<loom::abv::CampaignResult>& engine) {
  if (engine.size() != r.properties.size()) {
    return "engine returned " + std::to_string(engine.size()) +
           " results for " + std::to_string(r.properties.size()) +
           " properties";
  }
  std::string diff;
  const auto differ = [&](std::size_t p, const std::string& what,
                          std::uint64_t mine, std::uint64_t theirs) {
    if (mine == theirs) return false;
    diff = "property " + std::to_string(p) + ": " + what + " is " +
           std::to_string(mine) + " re-enacted, " + std::to_string(theirs) +
           " in the engine";
    return true;
  };
  for (std::size_t p = 0; p < engine.size(); ++p) {
    const PropertyOutcome& mine = r.properties[p];
    const loom::abv::CampaignResult& e = engine[p];
    if (differ(p, "traces", mine.traces, e.traces) ||
        differ(p, "events", mine.events, e.events) ||
        differ(p, "valid_accepted", mine.valid_accepted, e.valid_accepted) ||
        differ(p, "oracle_disagreements", mine.oracle_disagreements,
               e.oracle_disagreements) ||
        differ(p, "monitor ops", mine.monitor_stats.ops, e.monitor_stats.ops) ||
        differ(p, "monitor events", mine.monitor_stats.events,
               e.monitor_stats.events) ||
        differ(p, "monitor max_ops_per_event",
               mine.monitor_stats.max_ops_per_event,
               e.monitor_stats.max_ops_per_event)) {
      return diff;
    }
    for (std::size_t k = 0; k < 5; ++k) {
      const std::string kind = loom::abv::to_string(kKinds[k]);
      const auto& a = mine.mutation[k];
      const auto& b = e.mutation[k];
      if (differ(p, kind + ".applied", a.applied, b.applied) ||
          differ(p, kind + ".invalid", a.invalid, b.invalid) ||
          differ(p, kind + ".detected", a.detected, b.detected) ||
          differ(p, kind + ".missed", a.missed, b.missed)) {
        return diff;
      }
    }
  }
  return "";
}

}  // namespace perfbench
