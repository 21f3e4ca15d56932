#include "abv/stimuli.hpp"

#include <algorithm>
#include <vector>

namespace loom::abv {
namespace {

using support::Rng;

/// Appends the events of one fragment: a random order of blocks (all ranges
/// under ∧, a random non-empty subset under ∨), each block a random length
/// in [u,v].  `next_time` stamps each event (and may append a noise event
/// first); `used` is the caller's buffer, reused across fragments.
template <typename NextTime>
void emit_fragment(const spec::Fragment& f, Rng& rng, NextTime& next_time,
                   std::vector<std::size_t>& used, spec::Trace& out) {
  used.clear();
  if (f.join == spec::Join::Conj) {
    for (std::size_t r = 0; r < f.ranges.size(); ++r) used.push_back(r);
  } else {
    for (std::size_t r = 0; r < f.ranges.size(); ++r) {
      if (rng.chance(1, 2)) used.push_back(r);
    }
    if (used.empty()) used.push_back(rng.below(f.ranges.size()));
  }
  // Fisher-Yates shuffle for a random concatenation order.
  for (std::size_t k = used.size(); k > 1; --k) {
    std::swap(used[k - 1], used[rng.below(k)]);
  }
  for (const std::size_t r : used) {
    const spec::Range& range = f.ranges[r];
    const std::uint64_t count = rng.between(range.lo, range.hi);
    for (std::uint64_t c = 0; c < count; ++c) {
      // Stamp first: next_time() may append a noise event, which must
      // precede this one.
      const sim::Time time = next_time();
      out.push_back({range.name, time});
    }
  }
}

std::vector<spec::Name> noise_pool(spec::Alphabet& ab, std::size_t n) {
  std::vector<spec::Name> pool;
  for (std::size_t k = 0; k < n; ++k) {
    const std::string name = "zz_noise" + std::to_string(k);
    // Lookup before interning: once the names exist (the campaign engine
    // pre-interns them during setup), generation never writes the alphabet,
    // which lets parallel workers share one instance without copies.
    if (const auto id = ab.lookup(name)) {
      pool.push_back(*id);
    } else {
      pool.push_back(ab.name(name));
    }
  }
  return pool;
}

/// Counts an upper bound of the events in one round of the ordering.
std::uint64_t max_round_events(const spec::LooseOrdering& l) {
  std::uint64_t n = 0;
  for (const auto& f : l.fragments) {
    for (const auto& r : f.ranges) n += r.hi;
  }
  return n;
}

void generate_valid_into(const spec::Antecedent& a, spec::Alphabet& ab,
                         support::Rng& rng, const StimuliOptions& options,
                         spec::Trace& out) {
  out.clear();
  std::uint64_t now_ps = 0;
  const auto pool = noise_pool(ab, std::max<std::size_t>(1, options.noise_names));
  auto next_time = [&] {
    now_ps += 1000 * (1 + rng.below(std::max<std::uint64_t>(1, options.max_gap_ns)));
    if (options.noise_permille != 0 && rng.below(1000) < options.noise_permille) {
      out.push_back({pool[rng.below(pool.size())], sim::Time::ps(now_ps)});
      now_ps += 1000;
    }
    return sim::Time::ps(now_ps);
  };
  std::vector<std::size_t> used;
  for (std::size_t round = 0; round < options.rounds; ++round) {
    for (const auto& f : a.pattern.fragments) {
      emit_fragment(f, rng, next_time, used, out);
    }
    const sim::Time time = next_time();
    out.push_back({a.trigger, time});
    if (!a.repeated) break;  // one round suffices; later ones unconstrained
  }
}

void generate_valid_into(const spec::TimedImplication& t, spec::Alphabet& ab,
                         support::Rng& rng, const StimuliOptions& options,
                         spec::Trace& out) {
  out.clear();
  std::uint64_t now_ps = 0;
  const std::uint64_t round_events =
      max_round_events(t.antecedent) + max_round_events(t.consequent);
  // Budget the spacing so a full round (plus slack) fits in the deadline.
  const std::uint64_t gap_ps = std::max<std::uint64_t>(
      1, t.bound.picoseconds() / (2 * (round_events + 2)));
  const auto pool = noise_pool(ab, std::max<std::size_t>(1, options.noise_names));
  auto next_time = [&] {
    now_ps += 1 + rng.below(gap_ps);
    if (options.noise_permille != 0 && rng.below(1000) < options.noise_permille) {
      out.push_back({pool[rng.below(pool.size())], sim::Time::ps(now_ps)});
      now_ps += 1;
    }
    return sim::Time::ps(now_ps);
  };
  std::vector<std::size_t> used;
  for (std::size_t round = 0; round < options.rounds; ++round) {
    for (const auto& f : t.antecedent.fragments) {
      emit_fragment(f, rng, next_time, used, out);
    }
    for (const auto& f : t.consequent.fragments) {
      emit_fragment(f, rng, next_time, used, out);
    }
    now_ps += gap_ps;  // inter-round slack
  }
}

}  // namespace

void pre_intern_stimuli_names(spec::Alphabet& ab,
                              const StimuliOptions& options) {
  noise_pool(ab, std::max<std::size_t>(1, options.noise_names));
}

void generate_valid_into(const spec::Property& p, spec::Alphabet& ab,
                         support::Rng& rng, const StimuliOptions& options,
                         spec::Trace& out) {
  if (p.is_antecedent()) {
    generate_valid_into(p.antecedent(), ab, rng, options, out);
  } else {
    generate_valid_into(p.timed(), ab, rng, options, out);
  }
}

spec::Trace generate_valid(const spec::Property& p, spec::Alphabet& ab,
                           support::Rng& rng,
                           const StimuliOptions& options) {
  spec::Trace out;
  generate_valid_into(p, ab, rng, options, out);
  return out;
}

spec::Trace generate_valid(const spec::Antecedent& a, spec::Alphabet& ab,
                           support::Rng& rng,
                           const StimuliOptions& options) {
  spec::Trace out;
  generate_valid_into(a, ab, rng, options, out);
  return out;
}

spec::Trace generate_valid(const spec::TimedImplication& t,
                           spec::Alphabet& ab, support::Rng& rng,
                           const StimuliOptions& options) {
  spec::Trace out;
  generate_valid_into(t, ab, rng, options, out);
  return out;
}

}  // namespace loom::abv
