#include "abv/campaign.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "abv/seed_pass.hpp"
#include "spec/parser.hpp"
#include "support/thread_pool.hpp"
#include "wire/payload.hpp"
#include "wire/process.hpp"

#if LOOM_WIRE_HAS_PROCESS
#include <csignal>
#include <poll.h>
#include <unistd.h>
#endif

namespace loom::abv {
namespace {

constexpr MutationKind kAllKinds[5] = {
    MutationKind::Drop, MutationKind::Duplicate, MutationKind::SwapAdjacent,
    MutationKind::EarlyTrigger, MutationKind::StallDeadline};

// A seed has six slots: slot 0 is its valid-stimuli phase, slots 1..5 its
// batch of one mutation kind each.  Each slot draws from its own Rng
// stream keyed by (seed, slot), so seeds are independent by construction —
// which is what makes the reduction order-independent and the engine
// deterministic under any thread count.  The slots still name the work
// units a degraded run reports as lost (ShardFailure's unit range).
constexpr std::size_t kSlotsPerSeed = 6;

sim::Time end_of(const spec::Trace& t) {
  return t.empty() ? sim::Time::zero() : t.back().time;
}

// Accumulator local to one shard; merged into the campaign result in shard
// index order after the pool drains.
struct ShardOutcome {
  CampaignResult partial;
  std::optional<AlphabetCoverage> alphabet;
  std::optional<RecognizerCoverage> recognizer;
};

struct Shard {
  std::size_t job = 0;
  std::size_t seed_begin = 0;  // the job's seeds [begin, end)
  std::size_t seed_end = 0;
};

}  // namespace

// Per-thread scratch arena for the steady-state loop.  Each thread that
// runs shards — the process pool's workers and the calling thread — keeps
// one for the life of the thread, across campaigns.  Three lifetimes
// coexist inside it:
//   - the *buffers* live for the thread: the seed's trace, oracle ladder,
//     site list, mutant edits and sort buffers ratchet up to the largest
//     seed the thread has run, and every later seed reuses their
//     capacity, so a warm seed task allocates nothing;
//   - their *content* lives for one seed task: the edits borrow `trace`
//     and are all consumed before the next seed overwrites it;
//   - the *pool* (walker, replay and ViaPSL cross-check instances) is
//     scoped to one shard: its instances are stamped from the shard's
//     property plan, and the next shard may run another property or
//     another campaign, so begin_shard() drops them and nothing stamped
//     from one campaign's plans outlives it.
struct UnitScratch {
  spec::Trace trace;                // the seed's valid trace
  spec::RefLadder oracle;           // its oracle ladder (stride > 0)
  std::vector<std::size_t> sites;   // its alphabet sites
  // The seed's invalid mutants.  A MutantEdit can be neither copied nor
  // moved (its view points into its own patch), so a seed that needs more
  // room replaces the array instead of regrowing it.
  std::unique_ptr<MutantEdit[]> edits;
  std::size_t edit_capacity = 0;
  std::vector<std::size_t> buckets;  // counting sort over positions
  std::vector<std::size_t> order;    // edits by ascending position
  std::vector<std::size_t> stops;    // their distinct forked positions
  std::unique_ptr<mon::Monitor> walker;  // walks the valid trace
  std::unique_ptr<mon::Monitor> replay;  // replays the invalid mutants
  std::unique_ptr<mon::Monitor> viapsl;  // check_viapsl cross-check

  /// Drops every pooled instance; buffers keep their capacity.  Also the
  /// end-of-shard cleanup.
  void begin_shard() {
    walker.reset();
    replay.reset();
    viapsl.reset();
  }

  /// Room for `n` edits.
  MutantEdit* reserve_edits(std::size_t n) {
    if (edit_capacity < n) {
      edits = std::make_unique<MutantEdit[]>(n);
      edit_capacity = n;
    }
    return edits.get();
  }
};

namespace {

// The physical instance in `slot`, stamped from the shared plan on its
// first use in a shard.
mon::Monitor& instance(std::unique_ptr<mon::Monitor>& slot,
                       const PropertyPlan& job, mon::Backend backend) {
  if (slot == nullptr) slot = job.compiled.instantiate(backend);
  return *slot;
}

// A mutant's reference oracle reads its pieces in place.  With a ladder it
// resumes from its floor on the oracle ladder (possibly the initial state)
// and stops at the first rung past MutantEdit::aligned where its walk
// rejoins the valid trace's; without one it walks in full.  Either way the
// verdict bytes are identical (spec/reference.hpp).
spec::RefResult oracle_check(const PropertyPlan& job, std::size_t stride,
                             const MutantEdit& mutant,
                             const spec::RefLadder& oracle) {
  const sim::Time end_time = mutant.view.end_time();
  if (stride == 0) {
    return spec::reference_check(*job.property, job.compiled.plan(),
                                 mutant.view, end_time);
  }
  return spec::resume_reference_check(
      *job.property, job.compiled.plan(), oracle,
      std::min(mutant.position / oracle.stride, oracle.rungs.size()),
      mutant.view, end_time, mutant.aligned);
}

// Draws every mutant of seed `s`, each mutation slot from its own
// (seed, slot) stream in the reference loop's order, checks each with the
// oracle and keeps the invalid ones in scratch.edits; returns how many it
// kept.  The site-reading kinds share one scan of the trace.
std::size_t draw_invalid_mutants(const PropertyPlan& job,
                                 const CampaignOptions& options,
                                 std::size_t s, UnitScratch& scratch,
                                 ShardOutcome& out) {
  const spec::Trace& valid = scratch.trace;
  MutantEdit* const edits = scratch.reserve_edits(
      (kSlotsPerSeed - 1) * options.mutants_per_kind);
  bool sites_listed = false;
  std::size_t kept = 0;
  for (std::size_t slot = 1; slot < kSlotsPerSeed; ++slot) {
    const MutationKind kind = kAllKinds[slot - 1];
    MutationStats& stats = out.partial.mutation[slot - 1];
    support::Rng rng = support::Rng::stream(options.first_seed + s, slot);
    std::span<const std::size_t> sites;
    if (mutation_reads_sites(kind)) {
      if (!sites_listed) {
        mutation_sites_into(valid, job.compiled.alphabet(),
                            scratch.sites);
        sites_listed = true;
      }
      sites = scratch.sites;
    }
    for (std::size_t m = 0; m < options.mutants_per_kind; ++m) {
      MutantEdit& edit = edits[kept];
      if (!mutate_edit(valid, kind, *job.property, sites, rng, edit)) {
        continue;
      }
      ++stats.applied;
      if (!oracle_check(job, options.checkpoint_stride, edit, scratch.oracle)
               .rejected()) {
        continue;
      }
      ++stats.invalid;
      ++kept;
    }
  }
  return kept;
}

// Orders the first `kept` edits by MutantEdit::position with a stable
// counting sort over [0, n] into scratch.order, and lists their distinct
// positive positions in scratch.stops.  Returns how many of them lead the
// order at position 0 — all of them without `fork` (stride 0): those
// replay from event 0.
std::size_t order_by_position(std::size_t kept, std::size_t n, bool fork,
                              UnitScratch& scratch) {
  const MutantEdit* const edits = scratch.edits.get();
  std::vector<std::size_t>& order = scratch.order;
  order.resize(kept);
  scratch.stops.clear();
  if (!fork) {
    for (std::size_t i = 0; i < kept; ++i) order[i] = i;
    return kept;
  }
  // buckets[p] ends up the number of edits at positions below p, the slot
  // where the first edit at p goes.
  std::vector<std::size_t>& buckets = scratch.buckets;
  buckets.assign(n + 2, 0);
  for (std::size_t i = 0; i < kept; ++i) ++buckets[edits[i].position + 1];
  for (std::size_t p = 1; p < n + 2; ++p) buckets[p] += buckets[p - 1];
  const std::size_t at_zero = buckets[1];
  for (std::size_t i = 0; i < kept; ++i) {
    order[buckets[edits[i].position]++] = i;
  }
  for (std::size_t j = at_zero; j < kept; ++j) {
    const std::size_t p = edits[order[j]].position;
    if (scratch.stops.empty() || scratch.stops.back() != p) {
      scratch.stops.push_back(p);
    }
  }
  return at_zero;
}

// Steps a mutant's events [begin, end) through `monitor`, one
// Monitor::observe_shifted call per piece: the monitor sees exactly the
// materialized mutant's events from `begin` on.
void replay_pieces(mon::Monitor& monitor, const spec::TraceView& view,
                   std::size_t begin) {
  std::size_t base = 0;  // index of the piece's first event
  for (std::size_t i = 0; i < view.count; ++i) {
    const spec::TracePiece& piece = view.pieces[i];
    const std::size_t skip = begin > base ? begin - base : 0;
    base += piece.size;
    if (skip >= piece.size) continue;
    monitor.observe_shifted(piece.data + skip, piece.data + piece.size,
                            piece.shift);
  }
}

// Replays one invalid mutant on the shard's pooled replay monitor and
// tallies the verdict.  With `from` > 0 — the mutant's
// MutantEdit::position, a prefix it shares with the valid trace — the
// monitor forks from the walker paused there, whose state already carries
// the prefix's stats, verdict and timing registers, so the bytes match a
// replay from event 0 exactly (campaign_reference_diff_test); with `from`
// 0, from a reset.
void replay_mutant(const PropertyPlan& job, const MutantEdit& mutant,
                   std::size_t from, UnitScratch& scratch, ShardOutcome& out) {
  LOOM_DASSERT((from == 0 || from == mutant.position) &&
               from <= mutant.view.size);
  mon::Monitor& monitor = instance(scratch.replay, job, job.compiled.chosen());
  if (from == 0) {
    monitor.reset();
  } else {
    // A fork overwrites the whole state, so no reset goes first
    // (mon_fork_test forks into dirty instances).
    monitor.fork_from(*scratch.walker);
    ++out.partial.checkpoint_hits;
    out.partial.events_skipped += from;
  }
  replay_pieces(monitor, mutant.view, from);
  monitor.finish(mutant.view.end_time());
  MutationStats& stats =
      out.partial.mutation[static_cast<std::size_t>(mutant.kind)];
  if (monitor.verdict() == mon::Verdict::Violated) {
    ++stats.detected;
  } else {
    ++stats.missed;
  }
  out.partial.monitor_stats.merge(monitor.stats());
}

// The valid unit's verdicts, from the walk's record and the oracle.
void tally_valid_unit(const PropertyPlan& job, const CampaignOptions& options,
                      const spec::Trace& valid, const ValidRecord& record,
                      const spec::RefResult& ref, UnitScratch& scratch,
                      ShardOutcome& out) {
  ++out.partial.traces;
  out.partial.events += valid.size();
  const bool monitor_ok = !record.violated;
  if (monitor_ok && !ref.rejected()) ++out.partial.valid_accepted;
  if (monitor_ok == ref.rejected()) ++out.partial.oracle_disagreements;
  out.partial.monitor_stats.merge(record.stats);
  if (!options.check_viapsl) return;
  // The cross-check instantiates from the shared clause set, pooled per
  // shard like the chosen-backend monitor (reset ≡ fresh,
  // mon_reset_reuse_test).
  mon::Monitor& viapsl = instance(scratch.viapsl, job, mon::Backend::ViaPSL);
  viapsl.reset();
  viapsl.observe_batch(valid.data(), valid.data() + valid.size());
  viapsl.finish(end_of(valid));
  if (!ref.rejected() && viapsl.verdict() == mon::Verdict::Violated) {
    ++out.partial.viapsl_false_alarms;
  }
  out.partial.monitor_stats.merge(viapsl.stats());
}

// One seed task: all six units of seed `s`.  It generates the valid trace
// into the thread's scratch, records the oracle ladder, draws and
// oracle-checks every mutant, then walks the valid trace once with the
// chosen monitor, sampling coverage, and at each invalid mutant's exact
// divergence position pauses and replays every mutant that diverges there
// from a copy of its live state (split-stream execution: forked replay ≡
// live stepping).  At stride 0, and for a mutant at position 0, the
// replay starts from event 0.
void run_seed(const PropertyPlan& job, spec::Alphabet& ab,
              const CampaignOptions& options, std::size_t s,
              UnitScratch& scratch, ShardOutcome& out) {
  const mon::CompiledProperty& compiled = job.compiled;
  const mon::Backend chosen = compiled.chosen();
  const std::size_t stride = options.checkpoint_stride;
  // The seed pass serves all six units: the valid unit counts as the
  // miss, the mutation units as hits.
  ++out.partial.trace_cache_misses;
  out.partial.trace_cache_hits += kSlotsPerSeed - 1;

  support::Rng valid_rng = support::Rng::stream(options.first_seed + s, 0);
  generate_valid_into(*job.property, ab, valid_rng, options.stimuli,
                      scratch.trace);
  const spec::Trace& valid = scratch.trace;
  if (stride > 0) {
    spec::record_reference_ladder_into(
        *job.property, compiled.plan(), valid, end_of(valid),
        std::max<std::size_t>(1, stride / 4), scratch.oracle);
  }
  const std::size_t kept = draw_invalid_mutants(job, options, s, scratch, out);
  const std::size_t from_start =
      order_by_position(kept, valid.size(), stride > 0, scratch);
  const MutantEdit* const edits = scratch.edits.get();
  const std::vector<std::size_t>& order = scratch.order;

  for (std::size_t j = 0; j < from_start; ++j) {
    replay_mutant(job, edits[order[j]], 0, scratch, out);
  }

  mon::Monitor& walker = instance(scratch.walker, job, chosen);
  walker.reset();
  std::size_t next = from_start;
  const auto fork = [&](std::size_t position) {
    for (; next < kept && edits[order[next]].position == position; ++next) {
      replay_mutant(job, edits[order[next]], position, scratch, out);
    }
  };
  const ValidRecord record = walk_valid_trace(
      compiled, walker, valid, {*out.alphabet, out.recognizer}, scratch.stops,
      fork);
  LOOM_DASSERT(next == kept);
  const spec::RefResult ref =
      stride > 0 ? scratch.oracle.full
                 : spec::reference_check(*job.property, compiled.plan(), valid,
                                         end_of(valid));
  tally_valid_unit(job, options, valid, record, ref, scratch, out);
}

void run_shard(const std::vector<PropertyPlan>& jobs, spec::Alphabet& ab,
               const CampaignOptions& options, const Shard& shard,
               UnitScratch& scratch, ShardOutcome& out) {
  const PropertyPlan& job = jobs[shard.job];
  // Fresh pool per shard (buffers keep their capacity): nothing stamped
  // from another property's plan is reused, and nothing borrowed survives
  // in a worker's scratch past this campaign.
  scratch.begin_shard();
  out.alphabet.emplace(job.property->alphabet());
  // Workers share the one alphabet without locks or copies: setup
  // pre-interned every name stimuli generation touches, and noise_pool()
  // looks names up before interning, so generation is read-only here.
  for (std::size_t s = shard.seed_begin; s < shard.seed_end; ++s) {
    run_seed(job, ab, options, s, scratch, out);
  }
  scratch.begin_shard();  // end-of-shard cleanup (see UnitScratch)
}

// The calling thread's scratch arena, kept across campaigns (see
// UnitScratch): the serial path and every thread of the process pool use
// their own.
UnitScratch& thread_scratch() {
  static thread_local UnitScratch scratch;
  return scratch;
}

// Runs every listed shard in this process — serially or on the process
// pool, with the calling thread as one of at most `threads` executors —
// filling outcomes[i] for shard i.  Shared by run_campaigns (the
// workers=0 path) and run_campaign_worker (each worker process runs its
// assigned slice through exactly this code, which is half of why
// in-process ≡ cross-process holds byte for byte).  The pool is the
// process-wide one, which outlives the campaign, unless the caller passes
// its own.
void run_shards_in_process(const std::vector<PropertyPlan>& jobs,
                           spec::Alphabet& ab, const CampaignOptions& options,
                           const std::vector<Shard>& shards,
                           std::size_t threads,
                           std::vector<ShardOutcome>& outcomes,
                           support::ThreadPool* pool = nullptr) {
  if (threads <= 1 || shards.size() <= 1) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      run_shard(jobs, ab, options, shards[i], thread_scratch(), outcomes[i]);
    }
    return;
  }
  if (pool == nullptr) pool = &support::ThreadPool::shared(threads - 1);
  pool->for_each_index(
      shards.size(),
      [&](std::size_t i) {
        run_shard(jobs, ab, options, shards[i], thread_scratch(),
                  outcomes[i]);
      },
      threads);
}

#if LOOM_WIRE_HAS_PROCESS

// How long a worker gets between SIGTERM and SIGKILL when the supervisor
// retires it, and how long a Done-frame worker gets to actually exit.
constexpr long kKillGraceMs = 500;

// Supervision bookkeeping run_shards_cross_process hands back to
// run_campaigns: retry counts per property (CampaignResult::worker_retries,
// an engine diagnostic) and, under allow_partial, the shards that were
// never executed (CampaignResult::shard_failures, the semantic record of a
// degraded run).
struct SupervisionInfo {
  std::vector<std::size_t> retries_by_job;
  std::vector<CampaignResult::ShardFailure> failures;
};

// describe_wait_status plus the pinned exec-failure exit codes: 127 is
// execvp itself failing (missing or non-executable worker binary), 126 the
// child's stdin/stdout setup failing before exec — both mean the worker
// command could not be executed at all, which deserves a plainer sentence
// than "exited with code 127".
std::string describe_worker_exit(int status) {
  std::string text = wire::describe_wait_status(status);
  const int code = wire::exit_code(status);
  if (code == kWorkerExitExecMissing) {
    text +=
        "; the worker command could not be executed "
        "(execvp failed: missing or non-executable binary)";
  } else if (code == kWorkerExitExecSetup) {
    text +=
        "; the worker command could not be executed "
        "(stdin/stdout setup failed before exec)";
  }
  return text;
}

// Slots one verified partial back into `outcomes` at its shard index —
// after which the merge loop cannot tell it from an in-process outcome.
void install_partial(const std::vector<PropertyPlan>& jobs,
                     wire::WorkerPartialData& part,
                     std::vector<ShardOutcome>& outcomes) {
  ShardOutcome& out = outcomes[static_cast<std::size_t>(part.shard)];
  out.partial = part.partial;
  AlphabetCoverage cov(jobs[part.job].property->alphabet());
  for (std::size_t n = 0; n < part.alphabet_seen.size(); ++n) {
    if (part.alphabet_seen[n]) cov.record(static_cast<spec::Name>(n));
  }
  out.alphabet.emplace(std::move(cov));
  if (part.has_recognizer) {
    out.recognizer.emplace(std::move(part.recognizer_rows));
  }
}

// The request parts every worker shares: the alphabet's names in id order
// (re-interning them in that order reproduces the parent's dense ids
// exactly), each property's normalized text, and the options with workers
// zeroed — a worker never recursively forks its own fleet.
wire::WorkerRequestData make_base_request(
    const std::vector<PropertyPlan>& jobs, const spec::Alphabet& ab,
    const CampaignOptions& options) {
  wire::WorkerRequestData base;
  base.names.reserve(ab.size());
  for (std::size_t i = 0; i < ab.size(); ++i) {
    const spec::Name n = static_cast<spec::Name>(i);
    base.names.push_back(ab.text(n));
    base.directions.push_back(static_cast<std::uint8_t>(ab.direction(n)));
  }
  for (const auto& job : jobs) {
    base.properties.push_back(spec::to_string(*job.property, ab));
  }
  base.options = options;
  base.options.workers = 0;
  return base;
}

// Frames one worker's request: the shared base plus its round-robin shard
// slice.  `clear_fault` builds the retry variant — the supervisor
// re-dispatches with the fault disarmed, so a retried attempt runs clean
// (that is what makes faulted-then-retried ≡ clean hold byte for byte).
std::vector<std::uint8_t> frame_request(
    const wire::WorkerRequestData& base, const std::vector<std::size_t>& mine,
    const std::vector<Shard>& shards, bool clear_fault) {
  wire::WorkerRequestData req = base;
  if (clear_fault) req.options.worker_fault = WorkerFault::None;
  req.shards.reserve(mine.size());
  for (const std::size_t i : mine) {
    req.shards.push_back(
        {i, shards[i].job, shards[i].seed_begin, shards[i].seed_end});
  }
  wire::Encoder enc;
  wire::encode_worker_request(enc, req);
  std::vector<std::uint8_t> framed;
  wire::write_frame(framed, wire::Payload::WorkerRequest, enc);
  return framed;
}

// The supervised drain: every worker's response pipe goes O_NONBLOCK, one
// poll(2) loop multiplexes all the streams (a slow worker cannot hide a
// sibling's failure), a per-frame deadline (CampaignOptions::
// worker_timeout_ms, re-armed on each completed frame) retires workers
// that stall or trickle, and a retired worker's shards are re-dispatched
// to a fresh fault-free process up to CampaignOptions::worker_retries
// times.  Only a clean Done merges; exhausted budgets either throw
// WorkerFailure or — under allow_partial — record the slot's shards in
// SupervisionInfo::failures and let the rest of the campaign stand.
//
// Nothing in the loop blocks on a single worker: exits are waited for in
// the same poll set, through each worker's pidfd (WorkerProcess::exit_fd),
// with their own deadlines — so a worker slow to exit after its Done
// frame, or slow to die after SIGTERM, never starves a sibling's stream
// or runs down a sibling's frame deadline.
void run_shards_supervised(const std::vector<PropertyPlan>& jobs,
                           const CampaignOptions& options,
                           const std::vector<Shard>& shards,
                           const std::vector<std::vector<std::size_t>>& assigned,
                           const wire::WorkerRequestData& base,
                           std::vector<ShardOutcome>& outcomes,
                           SupervisionInfo& sup) {
  using Clock = std::chrono::steady_clock;
  const std::size_t workers = assigned.size();
  const long timeout_ms = static_cast<long>(options.worker_timeout_ms);
  const auto grace = std::chrono::milliseconds(kKillGraceMs);

  struct Slot {
    wire::WorkerProcess proc;
    std::optional<wire::FdFrameReader> reader;
    std::vector<std::uint8_t> first_request;  // fault armed (if any)
    std::vector<std::uint8_t> retry_request;  // fault disarmed
    std::vector<wire::WorkerPartialData> partials;
    std::vector<bool> got;  // per assigned shard: partial received
    std::size_t attempts = 0;
    // Draining: reading the reply pipe.  Reaping: a valid Done arrived;
    // waiting for the worker's exit.  Terminating: retired; waiting for
    // the SIGTERM (or, past the grace, the SIGKILL) to land.  Done and
    // Failed are final.
    enum class State { Draining, Reaping, Terminating, Done, Failed } state =
        State::Draining;
    std::string diagnostic;
    // Draining: the frame deadline (only with worker_timeout_ms set).
    // Reaping: the exit deadline.  Terminating: the SIGKILL deadline.
    Clock::time_point deadline{};
    std::uint64_t done_count = 0;  // Reaping: the Done frame's count
    bool killed = false;           // Terminating: SIGKILL already sent
    // Terminating: the failure, and whether the final wait status is
    // appended to it.
    std::string failure;
    bool with_status = false;
  };

  std::vector<Slot> slots(workers);
  // Per property, the recognizer rows a walk starts from: every partial's
  // rows must have their shape and names.
  std::vector<std::optional<RecognizerCoverage>> fresh_rows;
  fresh_rows.reserve(jobs.size());
  for (const auto& job : jobs) {
    fresh_rows.push_back(initial_recognizer_coverage(job.compiled));
  }
  // The distinct properties each slot's shards belong to: a retry is
  // charged to every property the re-dispatched slice serves.
  std::vector<std::vector<std::size_t>> slot_jobs(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    for (const std::size_t i : assigned[w]) {
      auto& js = slot_jobs[w];
      if (std::find(js.begin(), js.end(), shards[i].job) == js.end()) {
        js.push_back(shards[i].job);
      }
    }
    slots[w].first_request =
        frame_request(base, assigned[w], shards, /*clear_fault=*/false);
    slots[w].retry_request =
        base.options.worker_fault == WorkerFault::None
            ? slots[w].first_request
            : frame_request(base, assigned[w], shards, /*clear_fault=*/true);
  }

  const auto who_of = [](std::size_t w) {
    return "worker " + std::to_string(w);
  };

  // Parent-side failure (spawn, fcntl, poll): tear everything down and
  // throw — that is resource exhaustion, not a worker fault, so neither
  // the retry budget nor allow_partial applies.
  const auto fail_all = [&](const std::string& message) {
    for (auto& s : slots) s.proc.terminate(kKillGraceMs);
    throw WorkerFailure("cross-process campaign: " + message);
  };

  // Every parent-side pipe end and pidfd currently open across the fleet:
  // the close list a fresh fork-only child runs before child_main, so no
  // sibling relationship can swallow an EOF or pin a descriptor.
  const auto open_parent_fds = [&]() {
    std::vector<int> fds;
    for (const auto& s : slots) {
      for (const int fd : {s.proc.to_child, s.proc.from_child, s.proc.exit_fd}) {
        if (fd >= 0) fds.push_back(fd);
      }
    }
    return fds;
  };

  // Spawns (or respawns) slot w and writes its request.  False — with the
  // slot's diagnostic set — when the fresh worker refused the request
  // write, which counts as that attempt failing.
  const auto dispatch = [&](std::size_t w) -> bool {
    Slot& slot = slots[w];
    ++slot.attempts;
    try {
      slot.proc = wire::spawn_worker(
          options.worker_command,
          [](int in, int out) { return run_campaign_worker(in, out); }, w,
          open_parent_fds());
    } catch (const std::exception& e) {
      fail_all(e.what());
    }
    if (!wire::set_nonblocking(slot.proc.from_child)) {
      fail_all(who_of(w) + ": could not set O_NONBLOCK on the response pipe");
    }
    const auto& framed =
        slot.attempts == 1 ? slot.first_request : slot.retry_request;
    if (!wire::write_all(slot.proc.to_child, framed.data(), framed.size())) {
      slot.diagnostic = "request write failed (worker gone?)";
      return false;
    }
    slot.proc.close_to_child();
    slot.reader.emplace(slot.proc.from_child);
    slot.partials.clear();
    slot.got.assign(assigned[w].size(), false);
    slot.state = Slot::State::Draining;
    if (timeout_ms > 0) {
      slot.deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    }
    return true;
  };

  // Retires slot w's current worker without waiting for it: both pipe
  // ends close (EOF/EPIPE for a cooperative worker), SIGTERM goes out and
  // the slot turns Terminating.  The poll loop sends SIGKILL at the grace
  // deadline (a Hang-faulted worker ignores the SIGTERM and dies only to
  // the escalation) and settles the slot once the worker is reaped, with
  // `failure` as its diagnostic — followed by the worker's wait status in
  // parentheses when `with_status` is set.
  const auto retire = [&](std::size_t w, std::string failure,
                          bool with_status) {
    Slot& slot = slots[w];
    slot.reader.reset();
    slot.proc.close_to_child();
    slot.proc.close_from_child();
    slot.proc.kill(SIGTERM);
    slot.failure = std::move(failure);
    slot.with_status = with_status;
    slot.killed = false;
    slot.deadline = Clock::now() + grace;
    slot.state = Slot::State::Terminating;
  };

  // Settles a retired slot once its worker is reaped: render the failure
  // over the final wait status, then spend the retry budget on a fresh
  // fault-free dispatch.  An exhausted budget marks the slot Failed under
  // allow_partial and tears the campaign down otherwise.
  const auto settle = [&](std::size_t w, int status) {
    Slot& slot = slots[w];
    if (slot.attempts <= options.worker_retries) {
      for (const std::size_t p : slot_jobs[w]) ++sup.retries_by_job[p];
      if (!dispatch(w)) {
        retire(w, who_of(w) + ": " + slot.diagnostic, true);
      }
      return;
    }
    if (slot.with_status) {
      slot.failure += " (" + describe_worker_exit(status) + ")";
    }
    slot.diagnostic = slot.failure + " (attempt " +
                      std::to_string(slot.attempts) + " of " +
                      std::to_string(options.worker_retries + 1) + ")";
    slot.state = Slot::State::Failed;
    if (!options.allow_partial) fail_all(slot.diagnostic);
  };

  // Checks a Reaping slot's reaped worker, in the order the blocking drain
  // always has: exit code first, then the Done count against the buffered
  // partials against the assigned shards.
  const auto check_exit = [&](std::size_t w, int status) {
    Slot& slot = slots[w];
    const std::string who = who_of(w);
    if (wire::exit_code(status) != kWorkerExitOk) {
      retire(w, who + " " + describe_worker_exit(status), false);
      return;
    }
    if (slot.done_count != slot.partials.size() ||
        slot.partials.size() != assigned[w].size()) {
      retire(w,
             who + ": returned " + std::to_string(slot.partials.size()) +
                 " partials for " + std::to_string(assigned[w].size()) +
                 " assigned shards",
             false);
      return;
    }
    slot.state = Slot::State::Done;
  };

  // Drains every frame slot w's reader can produce without blocking.
  // Again ends the visit (poll() will wake us); anything else either
  // advances the slot or retires the worker.
  const auto pump = [&](std::size_t w) {
    Slot& slot = slots[w];
    const std::string who = who_of(w);
    while (slot.state == Slot::State::Draining) {
      wire::Frame frame;
      wire::DecodeError err;
      const auto st = slot.reader->next(frame, err);
      if (st == wire::FdFrameReader::Status::Again) return;
      if (st == wire::FdFrameReader::Status::Eof) {
        retire(w, who + ": stream ended before its Done frame", true);
        return;
      }
      if (st != wire::FdFrameReader::Status::Frame) {
        retire(w, who + ": " + err.to_string(), false);
        return;
      }
      if (timeout_ms > 0) {
        // A complete frame is progress: the deadline re-arms per frame.
        slot.deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
      }
      wire::Decoder d(frame.data, frame.size);
      switch (frame.tag) {
        case wire::Payload::WorkerPartial: {
          wire::WorkerPartialData part;
          if (!wire::decode_worker_partial(d, part)) {
            retire(w, who + ": " + d.error().to_string(), false);
            return;
          }
          if (!d.exhausted()) {
            retire(w, who + ": trailing bytes after a partial payload", false);
            return;
          }
          const std::size_t i = static_cast<std::size_t>(part.shard);
          bool ours = i < shards.size() && i % workers == w &&
                      part.job == shards[i].job;
          if (ours) {
            const std::size_t k = (i - w) / workers;
            ours = k < slot.got.size() && !slot.got[k];
            if (ours) slot.got[k] = true;
          }
          if (!ours) {
            retire(w,
                   who + ": partial for foreign shard " +
                       std::to_string(part.shard),
                   false);
            return;
          }
          // The merge reads a partial's rows in the shape of the first
          // shard's, so rows of another shape must never reach it.
          const auto& fresh = fresh_rows[part.job];
          if (part.has_recognizer != fresh.has_value() ||
              (fresh && !fresh->same_rows(part.recognizer_rows))) {
            retire(w,
                   who + ": recognizer coverage rows of shard " +
                       std::to_string(part.shard) +
                       " do not match its property",
                   false);
            return;
          }
          slot.partials.push_back(std::move(part));
          break;
        }
        case wire::Payload::WorkerDone: {
          if (!wire::decode_worker_done(d, slot.done_count) ||
              !d.exhausted()) {
            retire(w, who + ": malformed Done frame", false);
            return;
          }
          // The stream is complete; the exit is awaited in the poll set.
          slot.reader.reset();
          slot.proc.close_from_child();
          slot.deadline = Clock::now() + grace;
          slot.state = Slot::State::Reaping;
          return;
        }
        case wire::Payload::WorkerError: {
          std::string message;
          if (!wire::decode_worker_error(d, message)) {
            message = "(malformed error frame)";
          }
          retire(w, who + " reported: " + message, false);
          return;
        }
        default: {
          retire(w,
                 who + ": unexpected " + wire::to_string(frame.tag) + " frame",
                 false);
          return;
        }
      }
    }
  };

  for (std::size_t w = 0; w < workers; ++w) {
    if (!dispatch(w)) {
      retire(w, who_of(w) + ": " + slots[w].diagnostic, true);
    }
  }

  // The multiplexed drain.  Each pass first advances every slot that can
  // move without I/O — expired frame deadlines retire, reaped workers are
  // checked or settled, expired exit deadlines retire or escalate to
  // SIGKILL — then polls the Draining slots' pipes and the waiting slots'
  // pidfds together and pumps whichever pipes are readable.  A waiting
  // slot without a pidfd caps the poll at 1 ms so its WNOHANG re-check
  // runs on every wake-up.  The loop ends when every slot is Done or
  // Failed.
  std::vector<struct pollfd> pfds;
  std::vector<std::size_t> pfd_slot;
  for (;;) {
    const auto now = Clock::now();
    for (std::size_t w = 0; w < workers; ++w) {
      Slot& slot = slots[w];
      int status = 0;
      if (slot.state == Slot::State::Draining && timeout_ms > 0 &&
          now >= slot.deadline) {
        retire(w,
               who_of(w) + ": timed out after " + std::to_string(timeout_ms) +
                   " ms waiting for a frame",
               false);
      }
      if (slot.state == Slot::State::Reaping) {
        if (slot.proc.wait_for(0, status)) {
          check_exit(w, status);
        } else if (now >= slot.deadline) {
          retire(w, who_of(w) + ": kept running after its Done frame", true);
        }
      }
      // Not an else: a slot retired just above settles in the same pass
      // when its worker is already gone.
      if (slot.state == Slot::State::Terminating) {
        if (slot.proc.wait_for(0, status)) {
          settle(w, status);
        } else if (!slot.killed && now >= slot.deadline) {
          slot.proc.kill(SIGKILL);
          slot.killed = true;
        }
      }
    }

    pfds.clear();
    pfd_slot.clear();
    Clock::time_point next_deadline{};
    bool have_deadline = false;
    bool fallback_tick = false;
    for (std::size_t w = 0; w < workers; ++w) {
      const Slot& slot = slots[w];
      int fd = -1;
      bool timed = false;
      switch (slot.state) {
        case Slot::State::Draining:
          fd = slot.proc.from_child;
          timed = timeout_ms > 0;
          break;
        case Slot::State::Reaping:
        case Slot::State::Terminating:
          fd = slot.proc.exit_fd;
          fallback_tick = fallback_tick || fd < 0;
          timed = !slot.killed || slot.state == Slot::State::Reaping;
          break;
        case Slot::State::Done:
        case Slot::State::Failed:
          continue;
      }
      if (fd >= 0) {
        pfds.push_back({fd, POLLIN, 0});
        pfd_slot.push_back(w);
      }
      if (timed && (!have_deadline || slot.deadline < next_deadline)) {
        next_deadline = slot.deadline;
        have_deadline = true;
      }
    }
    if (pfds.empty() && !fallback_tick) break;
    int poll_timeout = -1;
    if (have_deadline) {
      const long long remain =
          std::chrono::ceil<std::chrono::milliseconds>(next_deadline -
                                                       Clock::now())
              .count();
      poll_timeout =
          remain <= 0 ? 0 : static_cast<int>(std::min<long long>(remain, INT_MAX));
    }
    if (fallback_tick && (poll_timeout < 0 || poll_timeout > 1)) {
      poll_timeout = 1;
    }
    const int n = ::poll(pfds.data(), pfds.size(), poll_timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_all(std::string("poll failed: ") + std::strerror(errno));
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      const std::size_t w = pfd_slot[k];
      // Only pipes are pumped; a readable pidfd is picked up by the next
      // pass's reap check.  pump may retire-and-respawn slot w, which is
      // harmless: the vector is rebuilt before the next poll().
      if (slots[w].state == Slot::State::Draining) pump(w);
    }
  }

  // Merge Done slots (per-slot validation already passed); record the
  // Failed slots' shards in shard-index order.  A Failed slot's buffered
  // partials are discarded whole — a degraded result never contains work
  // from a worker that did not finish cleanly.
  for (std::size_t w = 0; w < workers; ++w) {
    if (slots[w].state != Slot::State::Done) continue;
    for (auto& part : slots[w].partials) {
      install_partial(jobs, part, outcomes);
    }
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::size_t w = i % workers;
    if (slots[w].state != Slot::State::Failed) continue;
    sup.failures.push_back({w, i, shards[i].seed_begin * kSlotsPerSeed,
                            shards[i].seed_end * kSlotsPerSeed,
                            slots[w].diagnostic});
  }
}

// The parent side of cross-process sharding: spawn options.workers
// subprocesses, hand each a round-robin slice of the exact shard layout
// the in-process engine would run, and slot their wire-encoded partial
// outcomes back into `outcomes` at the same indices — after which the
// caller's merge loop cannot tell the difference.  That is the sixth
// differential invariant (campaign_process_diff_test); the supervised
// drain adds the seventh (faulted-then-retried ≡ clean,
// campaign_supervision_test).
void run_shards_cross_process(const std::vector<PropertyPlan>& jobs,
                              spec::Alphabet& ab,
                              const CampaignOptions& options,
                              const std::vector<Shard>& shards,
                              std::vector<ShardOutcome>& outcomes,
                              SupervisionInfo& sup) {
  // A worker that died must surface as a write error, not a SIGPIPE kill.
  wire::ignore_sigpipe();
  const std::size_t workers = std::min(options.workers, shards.size());

  // Round-robin assignment: shard i runs on worker i % workers.
  std::vector<std::vector<std::size_t>> assigned(workers);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    assigned[i % workers].push_back(i);
  }

  run_shards_supervised(jobs, options, shards, assigned,
                        make_base_request(jobs, ab, options), outcomes, sup);
}

#endif  // LOOM_WIRE_HAS_PROCESS

}  // namespace

std::vector<PropertyPlan> compile_property_plans(
    const std::vector<const spec::Property*>& properties,
    const spec::Alphabet& ab, const CampaignOptions& options) {
  std::vector<PropertyPlan> plans(properties.size());
  mon::CompileOptions copt;
  copt.backend = options.backend;
  // The cross-check instantiates ViaPSL monitors next to Drct units, so the
  // clause set must be materialized even when the chosen backend is Drct.
  copt.with_viapsl_artifact = options.check_viapsl;
  for (std::size_t p = 0; p < properties.size(); ++p) {
    PropertyPlan& plan = plans[p];
    plan.property = properties[p];
    plan.index = p;
    plan.compiled = mon::CompiledProperty::compile(*properties[p], ab, copt);
  }
  return plans;
}

namespace {

// What both entry points set up serially on the calling thread before any
// shard starts: every name stimuli generation could lazily intern is
// interned, and every property is translated exactly once — plan tables,
// backend choice, ViaPSL clause sets — so the alphabet and the plans are
// strictly read-only once threads share them.
struct CampaignSetup {
  std::vector<PropertyPlan> jobs;  // one per property, in order
  std::size_t threads = 1;         // options.threads, 0 resolved
};

CampaignSetup set_up_campaign(
    const std::vector<const spec::Property*>& properties, spec::Alphabet& ab,
    const CampaignOptions& options) {
  pre_intern_stimuli_names(ab, options.stimuli);
  CampaignSetup setup;
  setup.jobs = compile_property_plans(properties, ab, options);
  setup.threads =
      options.threads != 0
          ? options.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return setup;
}

}  // namespace

std::vector<CampaignResult> run_campaigns(
    const std::vector<const spec::Property*>& properties, spec::Alphabet& ab,
    const CampaignOptions& options) {
  const CampaignSetup setup = set_up_campaign(properties, ab, options);
  const std::vector<PropertyPlan>& jobs = setup.jobs;
  const std::size_t threads = setup.threads;

  // Shard each property's seeds into runs of whole seeds.  Shards never
  // span properties so each merges into exactly one result.  The automatic
  // size aims at four shards per executor: a quarter of one executor's
  // share of the campaign's units, rounded up to whole seeds.
  std::size_t shard_seeds = options.shard_seeds;
  if (shard_seeds == 0) {
    const std::size_t units = options.seeds * kSlotsPerSeed * jobs.size();
    shard_seeds = (std::max<std::size_t>(1, units / (threads * 4)) +
                   kSlotsPerSeed - 1) /
                  kSlotsPerSeed;
  }
  std::vector<Shard> shards;
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    for (std::size_t begin = 0; begin < options.seeds; begin += shard_seeds) {
      shards.push_back(
          {p, begin, std::min(options.seeds, begin + shard_seeds)});
    }
  }

  std::vector<ShardOutcome> outcomes(shards.size());
#if LOOM_WIRE_HAS_PROCESS
  SupervisionInfo sup;
  sup.retries_by_job.assign(jobs.size(), 0);
#endif
  if (options.workers > 0 && !shards.empty()) {
#if LOOM_WIRE_HAS_PROCESS
    run_shards_cross_process(jobs, ab, options, shards, outcomes, sup);
#else
    throw WorkerFailure(
        "cross-process campaign: no process support on this platform");
#endif
  } else {
    run_shards_in_process(jobs, ab, options, shards, threads, outcomes);
  }

  // Merge in shard-index order, one pass over the shards.  Every reduction
  // below is commutative and associative (sums, set unions, maxima), so
  // the fixed order is not load-bearing for determinism — it just makes
  // the bit-identity obvious.
  std::vector<CampaignResult> results(jobs.size());
  std::vector<AlphabetCoverage> alphabet_covs;
  alphabet_covs.reserve(jobs.size());
  for (const auto& job : jobs) {
    alphabet_covs.emplace_back(job.property->alphabet());
  }
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    results[p].compile_stats = {jobs[p].compiled.requested(),
                                jobs[p].compiled.chosen()};
  }
  std::vector<std::optional<RecognizerCoverage>> rec_covs(jobs.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::size_t p = shards[i].job;
    CampaignResult& result = results[p];
    ShardOutcome& out = outcomes[i];
    result.traces += out.partial.traces;
    result.events += out.partial.events;
    result.valid_accepted += out.partial.valid_accepted;
    result.oracle_disagreements += out.partial.oracle_disagreements;
    result.viapsl_false_alarms += out.partial.viapsl_false_alarms;
    for (std::size_t k = 0; k < 5; ++k) {
      result.mutation[k].merge(out.partial.mutation[k]);
    }
    result.monitor_stats.merge(out.partial.monitor_stats);
    result.trace_cache_hits += out.partial.trace_cache_hits;
    result.trace_cache_misses += out.partial.trace_cache_misses;
    result.checkpoint_hits += out.partial.checkpoint_hits;
    result.events_skipped += out.partial.events_skipped;
    if (out.alphabet) alphabet_covs[p].merge(*out.alphabet);
    if (out.recognizer) {
      if (rec_covs[p]) {
        rec_covs[p]->merge(*out.recognizer);
      } else {
        rec_covs[p].emplace(std::move(*out.recognizer));
      }
    }
  }
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    results[p].alphabet_coverage = alphabet_covs[p].ratio();
    results[p].recognizer_state_coverage =
        rec_covs[p] ? rec_covs[p]->state_ratio() : 1.0;
  }
#if LOOM_WIRE_HAS_PROCESS
  // Supervision outcome: retry counts are engine diagnostics (excluded
  // from report() and the differential comparisons — a retried campaign
  // must stay byte-identical to a clean one); shard failures are semantic
  // (they flip degraded()/ok() and print in report()).
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    results[p].worker_retries = sup.retries_by_job[p];
  }
  for (auto& f : sup.failures) {
    results[shards[f.shard].job].shard_failures.push_back(std::move(f));
  }
#endif
  return results;
}

CampaignResult run_campaign(const spec::Property& property,
                            spec::Alphabet& ab,
                            const CampaignOptions& options) {
  return run_campaigns({&property}, ab, options)[0];
}

int run_campaign_worker(int in_fd, int out_fd,
                        std::size_t request_timeout_ms) {
#if !LOOM_WIRE_HAS_PROCESS
  (void)in_fd;
  (void)out_fd;
  (void)request_timeout_ms;
  return kWorkerExitBadRequest;
#else
  wire::ignore_sigpipe();
  wire::Encoder enc;
  std::vector<std::uint8_t> framed;
  // SlowStream fault: once armed, every response byte trickles out alone
  // with a pause behind it — alive by poll()'s lights, dead by the
  // supervisor's frame deadline.
  bool slow = false;
  const auto send_bytes = [&](const std::uint8_t* data, std::size_t n) {
    if (!slow) return wire::write_all(out_fd, data, n);
    for (std::size_t b = 0; b < n; ++b) {
      if (!wire::write_all(out_fd, data + b, 1)) return false;
      ::usleep(20 * 1000);
    }
    return true;
  };
  const auto send = [&](wire::Payload tag) {
    framed.clear();
    wire::write_frame(framed, tag, enc);
    return send_bytes(framed.data(), framed.size());
  };
  const auto send_error = [&](const std::string& message) {
    enc.clear();
    wire::encode_worker_error(enc, message);
    send(wire::Payload::WorkerError);
  };

  // One request frame, fully read and validated before anything is sent
  // back (the other half of the protocol's no-deadlock argument).  The
  // optional deadline bounds the wait: an abandoned worker whose parent
  // never writes exits instead of blocking forever on stdin.
  wire::FdFrameReader reader(in_fd);
  if (request_timeout_ms > 0) {
    reader.set_read_timeout_ms(static_cast<long>(request_timeout_ms));
  }
  wire::Frame frame;
  wire::DecodeError err;
  const auto st = reader.next(frame, err);
  if (st != wire::FdFrameReader::Status::Frame) {
    send_error(st == wire::FdFrameReader::Status::Eof
                   ? "worker: no request frame before EOF"
                   : "worker: " + err.to_string());
    return kWorkerExitBadRequest;
  }
  if (frame.tag != wire::Payload::WorkerRequest) {
    send_error(std::string("worker: expected a WorkerRequest frame, got ") +
               wire::to_string(frame.tag));
    return kWorkerExitBadRequest;
  }
  wire::WorkerRequestData req;
  {
    wire::Decoder d(frame.data, frame.size);
    if (!wire::decode_worker_request(d, req)) {
      send_error("worker: " + d.error().to_string());
      return kWorkerExitBadRequest;
    }
    if (!d.exhausted()) {
      send_error("worker: trailing bytes after the request payload");
      return kWorkerExitBadRequest;
    }
  }
  if (req.options.worker_fault == WorkerFault::ExitBeforeRequest) {
    // Reads the request, answers nothing: the parent sees clean EOF with
    // exit 0 before any frame — as if the worker died before starting.
    return kWorkerExitOk;
  }

  try {
    // Reproduce the parent's interning: declaring the names in id order
    // yields identical dense ids, so traces, plans and coverage rows agree
    // bit for bit across the process boundary.
    spec::Alphabet ab;
    for (std::size_t i = 0; i < req.names.size(); ++i) {
      switch (req.directions[i]) {
        case 0: ab.input(req.names[i]); break;
        case 1: ab.output(req.names[i]); break;
        default: ab.name(req.names[i]); break;
      }
    }
    // Re-parse the normalized property texts (spec::to_string renders a
    // re-parseable text).
    std::vector<spec::Property> props;
    props.reserve(req.properties.size());
    for (const auto& text : req.properties) {
      support::DiagnosticSink sink;
      auto p = spec::parse_property(text, ab, sink);
      if (!p) {
        send_error("worker: property '" + text + "': " + sink.to_string());
        return kWorkerExitBadProperty;
      }
      props.push_back(std::move(*p));
    }

    const CampaignOptions& options = req.options;  // workers already zeroed
    std::vector<Shard> shards;
    shards.reserve(req.shards.size());
    for (const auto& s : req.shards) {
      if (s.job >= props.size() || s.seed_begin > s.seed_end ||
          s.seed_end > options.seeds) {
        send_error("worker: shard assignment out of range");
        return kWorkerExitBadRequest;
      }
      shards.push_back({static_cast<std::size_t>(s.job),
                        static_cast<std::size_t>(s.seed_begin),
                        static_cast<std::size_t>(s.seed_end)});
    }

    // The same serial setup run_campaigns does, then the assigned shards
    // on the in-process engine (this worker's own threads).
    std::vector<const spec::Property*> prop_ptrs;
    prop_ptrs.reserve(props.size());
    for (const auto& p : props) prop_ptrs.push_back(&p);
    const CampaignSetup setup = set_up_campaign(prop_ptrs, ab, options);
    const std::size_t threads = setup.threads;
    std::vector<ShardOutcome> outcomes(shards.size());
    {
      // A worker serves one request and exits, so its shards run on a
      // pool scoped to the request rather than the process-wide one:
      // every thread is joined before the first frame goes out, and the
      // process leaves with no thread behind (ThreadSanitizer, for one,
      // sleeps a second at exit while another thread lives, past the
      // supervisor's grace).  A forked worker thus never touches the
      // parent's pool either.
      std::optional<support::ThreadPool> pool;
      if (threads > 1 && shards.size() > 1) pool.emplace(threads - 1);
      run_shards_in_process(setup.jobs, ab, options, shards, threads,
                            outcomes, pool ? &*pool : nullptr);
    }

    // One partial frame per shard, in assignment order, then Done.
    for (std::size_t i = 0; i < shards.size(); ++i) {
      wire::WorkerPartialData part;
      part.shard = req.shards[i].shard;
      part.job = req.shards[i].job;
      part.partial = outcomes[i].partial;
      if (outcomes[i].alphabet) {
        part.alphabet_seen.assign(ab.size(), false);
        outcomes[i].alphabet->seen().for_each([&](std::size_t n) {
          if (n < part.alphabet_seen.size()) part.alphabet_seen[n] = true;
        });
      }
      if (outcomes[i].recognizer) {
        part.has_recognizer = true;
        part.recognizer_rows = outcomes[i].recognizer->per_fragment();
      }
      enc.clear();
      wire::encode_worker_partial(enc, part);
      framed.clear();
      wire::write_frame(framed, wire::Payload::WorkerPartial, enc);
      if (i == options.worker_fault_at &&
          options.worker_fault != WorkerFault::None) {
        // Deterministic protocol violations (campaign_worker_fault_test,
        // campaign_supervision_test): each fault strikes exactly the
        // partial frame at worker_fault_at.
        switch (options.worker_fault) {
          case WorkerFault::CorruptFrame:
            framed[0] ^= 0xFF;  // magic byte: the parent must reject this
            break;
          case WorkerFault::FutureVersion:
            framed[4] = wire::kWireVersion + 1;
            break;
          case WorkerFault::DieMidStream: {
            wire::write_all(out_fd, framed.data(), framed.size() / 2);
            return kWorkerExitIo;
          }
          case WorkerFault::Hang: {
            // Ignore the supervisor's SIGTERM: only the SIGKILL
            // escalation ends this worker.
            struct sigaction sa;
            std::memset(&sa, 0, sizeof(sa));
            sa.sa_handler = SIG_IGN;
            ::sigaction(SIGTERM, &sa, nullptr);
            for (;;) ::pause();
          }
          case WorkerFault::SlowStream:
            slow = true;
            break;
          case WorkerFault::None:
          case WorkerFault::PartialWritesOnly:
          case WorkerFault::ExitBeforeRequest:
          case WorkerFault::LingerAfterDone:
            break;
        }
      }
      if (!send_bytes(framed.data(), framed.size())) {
        return kWorkerExitIo;
      }
    }
    if (options.worker_fault == WorkerFault::PartialWritesOnly) {
      // Every partial sent, then silence where the Done trailer belongs:
      // the parent must discard the whole stream, clean exit or not.
      return kWorkerExitOk;
    }
    enc.clear();
    wire::encode_worker_done(enc, shards.size());
    if (!send(wire::Payload::WorkerDone)) return kWorkerExitIo;
    if (options.worker_fault == WorkerFault::LingerAfterDone &&
        options.worker_fault_at < shards.size()) {
      // A complete, valid stream — but the exit it promises comes only
      // after the supervisor's reap grace: only retirement ends this one.
      std::this_thread::sleep_for(std::chrono::milliseconds(4 * kKillGraceMs));
    }
    return kWorkerExitOk;
  } catch (const std::exception& e) {
    send_error(std::string("worker: ") + e.what());
    return kWorkerExitBadRequest;
  }
#endif  // LOOM_WIRE_HAS_PROCESS
}

std::vector<CampaignResult::DiagnosticCounter>
CampaignResult::diagnostic_counters() const {
  // Guarded ratio: a zero denominator means "no such work happened", which
  // reports as 0 — bench counters and the JSON baselines must never hold
  // NaN (it is unorderable, so a regression gate could not threshold it).
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const double trace_hits = static_cast<double>(trace_cache_hits);
  const double trace_misses = static_cast<double>(trace_cache_misses);
  const double skipped = static_cast<double>(events_skipped);
  // A forked state carries its prefix's stats, so monitor_stats.events
  // already counts every skipped event: it is the whole stepped-or-skipped
  // total, and the ratio's only denominator.
  const double observed = static_cast<double>(monitor_stats.events);
  return {
      {"trace_cache_hit_rate", ratio(trace_hits, trace_hits + trace_misses)},
      {"checkpoint_hits", static_cast<double>(checkpoint_hits)},
      {"events_skipped", skipped},
      {"skip_ratio", ratio(skipped, observed)},
      {"backend_viapsl",
       compile_stats.backend_chosen == mon::Backend::ViaPSL ? 1.0 : 0.0},
  };
}

std::string CampaignResult::report(const spec::Alphabet&,
                                   bool with_engine_diagnostics) const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "campaign: %zu traces (%zu events), %zu accepted, "
                "%zu oracle disagreements, %zu ViaPSL false alarms\n",
                traces, events, valid_accepted, oracle_disagreements,
                viapsl_false_alarms);
  out += buf;
  std::snprintf(buf, sizeof buf, "backend: %s (requested %s)\n",
                mon::to_string(compile_stats.backend_chosen),
                mon::to_string(compile_stats.backend_requested));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "coverage: alphabet %.0f%%, recognizer states %.0f%%\n",
                alphabet_coverage * 100.0,
                recognizer_state_coverage * 100.0);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "monitors: %llu ops over %llu events (worst %llu/event)\n",
                static_cast<unsigned long long>(monitor_stats.ops),
                static_cast<unsigned long long>(monitor_stats.events),
                static_cast<unsigned long long>(monitor_stats.max_ops_per_event));
  out += buf;
  for (std::size_t k = 0; k < 5; ++k) {
    const auto& m = mutation[k];
    std::snprintf(buf, sizeof buf,
                  "mutation %-14s: %3zu applied, %3zu invalid, %3zu "
                  "detected, %zu missed\n",
                  to_string(kAllKinds[k]), m.applied, m.invalid, m.detected,
                  m.missed);
    out += buf;
  }
  if (with_engine_diagnostics) {
    // Engine accounting, not semantic result: the default report must stay
    // byte-identical across every performance knob (the differential
    // tests' yardstick), so these lines are opt-in.
    std::snprintf(buf, sizeof buf,
                  "engine: %zu trace-cache hits, %zu misses\n",
                  trace_cache_hits, trace_cache_misses);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "replay: %zu checkpoint restores, %zu prefix events "
                  "skipped\n",
                  checkpoint_hits, events_skipped);
    out += buf;
  }
  // Semantic, not diagnostic: a degraded run (allow_partial absorbing an
  // exhausted worker slot) must announce exactly which shards never ran.
  for (const auto& f : shard_failures) {
    std::snprintf(buf, sizeof buf, "degraded: shard %zu (units [%zu,%zu)) lost on worker %zu: ",
                  f.shard, f.unit_begin, f.unit_end, f.worker);
    out += buf;
    out += f.diagnostic;
    out += '\n';
  }
  out += ok() ? "campaign PASSED\n" : "campaign FAILED\n";
  return out;
}

}  // namespace loom::abv
