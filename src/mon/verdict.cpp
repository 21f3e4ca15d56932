#include "mon/verdict.hpp"

#include "mon/snapshot.hpp"
#include "mon/stats.hpp"

namespace loom::mon {

void Monitor::observe_batch(const spec::TimedEvent* begin,
                            const spec::TimedEvent* end) {
  for (const spec::TimedEvent* ev = begin; ev != end; ++ev) {
    observe(ev->name, ev->time);
  }
}

void Monitor::observe_shifted(const spec::TimedEvent* begin,
                              const spec::TimedEvent* end, sim::Time shift) {
  if (shift.is_zero()) {
    observe_batch(begin, end);
    return;
  }
  for (const spec::TimedEvent* ev = begin; ev != end; ++ev) {
    observe(ev->name, ev->time + shift);
  }
}

void snapshot_violation(Snapshot& out, const std::optional<Violation>& v) {
  out.put_bool(v.has_value());
  if (!v.has_value()) return;
  out.put_u64(v->event_ordinal);
  out.put_time(v->time);
  out.put_u64(v->name);
  out.put_reason(v->reason);
}

void restore_violation(SnapshotReader& in, std::optional<Violation>& v) {
  if (!in.boolean()) {
    v.reset();
    return;
  }
  if (!v.has_value()) v.emplace();
  v->event_ordinal = static_cast<std::size_t>(in.u64());
  v->time = in.time();
  v->name = static_cast<spec::Name>(in.u64());
  v->reason = in.reason();
  v->detail.clear();
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Monitoring: return "monitoring";
    case Verdict::Pending: return "pending";
    case Verdict::Holds: return "holds";
    case Verdict::Violated: return "violated";
  }
  return "?";
}

std::string Violation::to_string(const spec::Alphabet& ab) const {
  std::string out = "violation at event #" + std::to_string(event_ordinal);
  out += " (t=" + time.to_string() + ")";
  if (name != spec::kInvalidName) out += " on '" + ab.text(name) + "'";
  out += ": " + text();
  return out;
}

}  // namespace loom::mon
