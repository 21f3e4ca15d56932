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

bool mutate_edit(const spec::Trace& trace, MutationKind kind,
                 const spec::Property& property,
                 std::span<const std::size_t> sites, support::Rng& rng,
                 MutantEdit& out) {
  LOOM_DASSERT(sites.empty() || sites.back() < trace.size());
  out.kind = kind;
  out.view = {};
  const spec::TimedEvent* const s = trace.data();
  const std::size_t n = trace.size();

  switch (kind) {
    case MutationKind::Drop: {
      if (sites.empty()) return false;
      const std::size_t pos = sites[rng.below(sites.size())];
      out.view.append(s, pos);
      out.view.append(s + pos + 1, n - pos - 1);
      out.position = pos;
      out.aligned = pos;
      return true;
    }
    case MutationKind::Duplicate: {
      if (sites.empty()) return false;
      const std::size_t pos = sites[rng.below(sites.size())];
      out.patch[0] = {s[pos].name, s[pos].time + sim::Time::ps(1)};
      out.view.append(s, pos + 1);
      out.view.append(out.patch, 1);
      out.view.append(s + pos + 1, n - pos - 1);
      // The copy lands at pos + 1, so the shared prefix extends through the
      // duplicated original — position names the insertion index, keeping
      // the "first possible divergence" contract uniform across kinds.
      out.position = pos + 1;
      out.aligned = pos + 2;
      return true;
    }
    case MutationKind::SwapAdjacent: {
      // Swap the names of two consecutive relevant events (times stay put,
      // so the trace remains chronologically ordered).  Noise may lie
      // between the two, which stays where it is.
      if (sites.size() < 2) return false;
      const std::size_t k = rng.below(sites.size() - 1);
      const std::size_t a = sites[k], b = sites[k + 1];
      if (s[a].name == s[b].name) return false;
      out.patch[0] = {s[b].name, s[a].time};
      out.patch[1] = {s[a].name, s[b].time};
      out.view.append(s, a);
      out.view.append(out.patch, 1);
      out.view.append(s + a + 1, b - a - 1);
      out.view.append(out.patch + 1, 1);
      out.view.append(s + b + 1, n - b - 1);
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
      const std::size_t pos = rng.below(n);
      out.patch[0] = {reset, s[pos].time + sim::Time::ps(1)};
      out.view.append(s, pos + 1);
      out.view.append(out.patch, 1);
      out.view.append(s + pos + 1, n - pos - 1);
      out.position = pos + 1;
      out.aligned = pos + 2;
      return true;
    }
    case MutationKind::StallDeadline: {
      if (!property.is_timed() || n < 2) return false;
      const sim::Time bound = property.timed().bound;
      const std::size_t pos = 1 + rng.below(n - 1);
      // Saturating, like every sim::Time sum: the materialized tail holds
      // exactly the times the view reads.
      out.view.append(s, pos);
      out.view.append(s + pos, n - pos, bound + bound + sim::Time::ns(1));
      out.position = pos;
      out.aligned = pos;
      return true;
    }
  }
  return false;
}

void materialize(const MutantEdit& edit, MutationResult& out) {
  spec::materialize(edit.view, out.trace);
  out.kind = edit.kind;
  out.position = edit.position;
  out.aligned = edit.aligned;
}

bool mutate_into(const spec::Trace& trace, MutationKind kind,
                 const spec::Property& property,
                 std::span<const std::size_t> sites, support::Rng& rng,
                 MutationResult& out) {
  MutantEdit edit;
  const bool applied = mutate_edit(trace, kind, property, sites, rng, edit);
  out.kind = kind;
  if (applied) materialize(edit, out);
  return applied;
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
