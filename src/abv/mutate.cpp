#include "abv/mutate.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace loom::abv {

const char* to_string(MutationKind k) {
  switch (k) {
    case MutationKind::Drop: return "drop";
    case MutationKind::Duplicate: return "duplicate";
    case MutationKind::SwapAdjacent: return "swap-adjacent";
    case MutationKind::EarlyTrigger: return "early-trigger";
    case MutationKind::StallDeadline: return "stall-deadline";
  }
  return "?";
}

void mutation_sites_into(const spec::Trace& trace,
                         const spec::NameSet& alphabet,
                         std::vector<std::size_t>& out) {
  out.clear();
  for (std::size_t k = 0; k < trace.size(); ++k) {
    if (alphabet.test(trace[k].name)) out.push_back(k);
  }
}

bool mutation_reads_sites(MutationKind kind) {
  return kind == MutationKind::Drop || kind == MutationKind::Duplicate ||
         kind == MutationKind::SwapAdjacent;
}

namespace {

/// Copies `src` into `dst` with room for one extra event, reusing `dst`'s
/// capacity.  Every operator below rebuilds the mutant from the source
/// trace, so a dirty scratch from an earlier call can never leak through.
void copy_with_headroom(const spec::Trace& src, spec::Trace& dst) {
  dst.clear();
  dst.reserve(src.size() + 1);
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace

bool mutate_into(const spec::Trace& trace, MutationKind kind,
                 const spec::Property& property,
                 std::span<const std::size_t> sites, support::Rng& rng,
                 MutationResult& out) {
  LOOM_DASSERT(sites.empty() || sites.back() < trace.size());
  out.kind = kind;
  spec::Trace& t = out.trace;

  switch (kind) {
    case MutationKind::Drop: {
      if (sites.empty()) return false;
      const std::size_t pos = sites[rng.below(sites.size())];
      t.clear();
      t.reserve(trace.size());
      t.insert(t.end(), trace.begin(),
               trace.begin() + static_cast<long>(pos));
      t.insert(t.end(), trace.begin() + static_cast<long>(pos) + 1,
               trace.end());
      out.position = pos;
      out.aligned = pos;
      return true;
    }
    case MutationKind::Duplicate: {
      if (sites.empty()) return false;
      const std::size_t pos = sites[rng.below(sites.size())];
      spec::TimedEvent copy = trace[pos];
      copy.time = copy.time + sim::Time::ps(1);
      copy_with_headroom(trace, t);
      t.insert(t.begin() + static_cast<long>(pos) + 1, copy);
      // The copy lands at pos + 1, so the shared prefix extends through the
      // duplicated original — position names the insertion index, keeping
      // the "first possible divergence" contract uniform across kinds.
      out.position = pos + 1;
      out.aligned = pos + 2;
      return true;
    }
    case MutationKind::SwapAdjacent: {
      // Swap the names of two consecutive relevant events (times stay put,
      // so the trace remains chronologically ordered).
      if (sites.size() < 2) return false;
      const std::size_t k = rng.below(sites.size() - 1);
      const std::size_t a = sites[k], b = sites[k + 1];
      if (trace[a].name == trace[b].name) return false;
      t.assign(trace.begin(), trace.end());
      std::swap(t[a].name, t[b].name);
      out.position = a;
      out.aligned = b + 1;
      return true;
    }
    case MutationKind::EarlyTrigger: {
      spec::Name reset = spec::kInvalidName;
      if (property.is_antecedent()) {
        reset = property.antecedent().trigger;
      } else {
        const auto& frags = property.timed().consequent.fragments;
        reset = frags.back().ranges.front().name;
      }
      if (trace.empty()) return false;
      const std::size_t pos = rng.below(trace.size());
      const spec::TimedEvent ev{reset, trace[pos].time + sim::Time::ps(1)};
      copy_with_headroom(trace, t);
      t.insert(t.begin() + static_cast<long>(pos) + 1, ev);
      out.position = pos + 1;
      out.aligned = pos + 2;
      return true;
    }
    case MutationKind::StallDeadline: {
      if (!property.is_timed() || trace.size() < 2) return false;
      const sim::Time bound = property.timed().bound;
      const std::size_t pos = 1 + rng.below(trace.size() - 1);
      const sim::Time shift = bound + bound + sim::Time::ns(1);
      t.assign(trace.begin(), trace.end());
      for (std::size_t k = pos; k < t.size(); ++k) {
        t[k].time = t[k].time + shift;
      }
      out.position = pos;
      out.aligned = pos;
      return true;
    }
  }
  return false;
}

namespace {

/// The NameSet overloads' shared body: scans `trace` for its sites only
/// when `kind` reads them, and only then calls `alphabet()`, so the
/// convenience overload builds its NameSet only for those kinds too.
template <class AlphabetFn>
bool scan_and_mutate(const spec::Trace& trace, MutationKind kind,
                     const spec::Property& property,
                     const AlphabetFn& alphabet, support::Rng& rng,
                     MutationResult& out) {
  // One site index per thread (and overload): content is recomputed from
  // scratch each call, so reuse is invisible to results — it only avoids
  // the per-call vector growth the profile showed.
  static thread_local std::vector<std::size_t> sites;
  sites.clear();
  if (mutation_reads_sites(kind)) {
    mutation_sites_into(trace, alphabet(), sites);
  }
  return mutate_into(trace, kind, property, sites, rng, out);
}

}  // namespace

bool mutate_into(const spec::Trace& trace, MutationKind kind,
                 const spec::Property& property,
                 const spec::NameSet& alphabet, support::Rng& rng,
                 MutationResult& out) {
  return scan_and_mutate(
      trace, kind, property,
      [&]() -> const spec::NameSet& { return alphabet; }, rng, out);
}

bool mutate_into(const spec::Trace& trace, MutationKind kind,
                 const spec::Property& property, support::Rng& rng,
                 MutationResult& out) {
  return scan_and_mutate(
      trace, kind, property, [&] { return property.alphabet(); }, rng, out);
}

std::optional<MutationResult> mutate(const spec::Trace& trace,
                                     MutationKind kind,
                                     const spec::Property& property,
                                     support::Rng& rng) {
  MutationResult result;
  if (!mutate_into(trace, kind, property, rng, result)) return std::nullopt;
  return result;
}

}  // namespace loom::abv
