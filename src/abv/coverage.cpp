#include "abv/coverage.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "support/diagnostics.hpp"

namespace loom::abv {

std::string AlphabetCoverage::report(const spec::Alphabet& ab) const {
  char head[64];
  std::snprintf(head, sizeof head, "alphabet coverage: %zu/%zu (%.0f%%)",
                covered(), total(), ratio() * 100.0);
  std::string out = head;
  const auto m = missed();
  if (!m.empty()) out += "\n  never observed: " + ab.render(m);
  return out;
}

RecognizerCoverage::RecognizerCoverage(const mon::AntecedentMonitor& monitor) {
  const auto& rec = monitor.recognizer();
  per_fragment_.resize(rec.fragment_count());
  for (std::size_t f = 0; f < rec.fragment_count(); ++f) {
    const auto& frag = rec.fragment(f);
    per_fragment_[f].resize(frag.child_count());
    for (std::size_t r = 0; r < frag.child_count(); ++r) {
      const auto& plan = frag.child(r).plan();
      per_fragment_[f][r].name = plan.name;
      per_fragment_[f][r].lo = plan.lo;
      per_fragment_[f][r].hi = plan.hi;
    }
  }
}

namespace {

void note(RecognizerCoverage::RangeCov& cov, unsigned state,
          std::uint32_t count) {
  cov.state_mask |= static_cast<std::uint8_t>(1u << state);
  cov.max_count = std::max(cov.max_count, count);
}

}  // namespace

void RecognizerCoverage::sample(const mon::AntecedentMonitor& monitor) {
  const auto& rec = monitor.recognizer();
  LOOM_DASSERT(rec.fragment_count() == per_fragment_.size());
  for (std::size_t f = 0; f < rec.fragment_count(); ++f) {
    const auto& frag = rec.fragment(f);
    for (std::size_t r = 0; r < frag.child_count(); ++r) {
      const auto& child = frag.child(r);
      note(per_fragment_[f][r], static_cast<unsigned>(child.state()),
           child.count());
    }
  }
}

void RecognizerCoverage::merge(const RecognizerCoverage& other) {
  LOOM_DASSERT(per_fragment_.size() == other.per_fragment_.size());
  for (std::size_t f = 0; f < per_fragment_.size(); ++f) {
    LOOM_DASSERT(per_fragment_[f].size() == other.per_fragment_[f].size());
    for (std::size_t r = 0; r < per_fragment_[f].size(); ++r) {
      auto& cov = per_fragment_[f][r];
      const auto& ocov = other.per_fragment_[f][r];
      LOOM_DASSERT(cov.name == ocov.name);
      cov.state_mask |= ocov.state_mask;
      cov.max_count = std::max(cov.max_count, ocov.max_count);
    }
  }
}

bool RecognizerCoverage::same_rows(
    const std::vector<std::vector<RangeCov>>& rows) const {
  if (rows.size() != per_fragment_.size()) return false;
  for (std::size_t f = 0; f < rows.size(); ++f) {
    if (rows[f].size() != per_fragment_[f].size()) return false;
    for (std::size_t r = 0; r < rows[f].size(); ++r) {
      const RangeCov& a = rows[f][r];
      const RangeCov& b = per_fragment_[f][r];
      if (a.name != b.name || a.lo != b.lo || a.hi != b.hi) return false;
    }
  }
  return true;
}

double RecognizerCoverage::state_ratio() const {
  std::size_t visited = 0, total = 0;
  for (const auto& frag : per_fragment_) {
    for (const auto& cov : frag) {
      visited += static_cast<std::size_t>(std::popcount(cov.state_mask));
      total += 6;
    }
  }
  return total == 0 ? 1.0
                    : static_cast<double>(visited) /
                          static_cast<double>(total);
}

std::size_t RecognizerCoverage::lo_bound_hits() const {
  std::size_t n = 0;
  for (const auto& frag : per_fragment_) {
    for (const auto& cov : frag) {
      if (cov.max_count >= cov.lo) ++n;
    }
  }
  return n;
}

std::size_t RecognizerCoverage::hi_bound_hits() const {
  std::size_t n = 0;
  for (const auto& frag : per_fragment_) {
    for (const auto& cov : frag) {
      if (cov.max_count >= cov.hi) ++n;
    }
  }
  return n;
}

std::string RecognizerCoverage::report(const spec::Alphabet& ab) const {
  char head[80];
  std::snprintf(head, sizeof head, "recognizer state coverage: %.0f%%",
                state_ratio() * 100.0);
  std::string out = head;
  for (std::size_t f = 0; f < per_fragment_.size(); ++f) {
    for (const auto& cov : per_fragment_[f]) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "\n  F%zu %s[%u,%u]: states %u/6, max block %u%s%s", f + 1,
                    ab.text(cov.name).c_str(), cov.lo, cov.hi,
                    std::popcount(cov.state_mask), cov.max_count,
                    cov.max_count >= cov.lo ? ", u hit" : "",
                    cov.max_count >= cov.hi ? ", v hit" : "");
      out += line;
    }
  }
  return out;
}

}  // namespace loom::abv
