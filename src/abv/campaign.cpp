#include "abv/campaign.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <thread>

#include "abv/seed_pass.hpp"
#include "mon/checkpoint_ladder.hpp"
#include "spec/parser.hpp"
#include "support/thread_pool.hpp"
#include "support/trace_cache.hpp"
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

// A work unit is one cell of the sharded campaign space: slot 0 is a seed's
// valid-stimuli phase, slots 1..5 are the seed's batch of one mutation
// kind.  Units are independent by construction — each derives its own Rng
// stream from (seed, slot) — which is what makes the reduction
// order-independent and the engine deterministic under any thread count.
constexpr std::size_t kSlotsPerSeed = 6;

sim::Time end_of(const spec::Trace& t) {
  return t.empty() ? sim::Time::zero() : t.back().time;
}

// Everything a work unit needs, shared read-only across workers once
// run_campaigns() has finished its setup (noise names pre-interned,
// property plans compiled, ViaPSL encodings materialized).
struct CampaignJob {
  const spec::Property* property = nullptr;
  const PropertyPlan* plan = nullptr;
  std::size_t index = 0;  // position in run_campaigns' property list
};

// One per-seed cache entry: the valid trace plus — with a positive
// checkpoint stride — the checkpoint ladders recorded while the monitor and
// the reference oracle each walk that trace exactly once, and the valid
// unit's record from that same monitor walk.  Rung k of
// `checkpoints` is the monitor state after the first (k+1)*stride events —
// compact VM rungs in one slab for a Vm monitor, mon::Snapshot rungs for
// any other (mon/checkpoint_ladder.hpp); the oracle's
// ladder is four times finer (oracle.stride = max(1, stride/4)), because
// its rungs are small and both its resume point and its reconvergence
// point sit closer to the edit.  A mutant whose divergence position p
// admits a floor rung resumes the monitor from rung p/stride - 1 and
// replays only the suffix; its oracle resumes from p/oracle.stride rungs
// and stops where it rejoins the valid walk; and the valid unit reads its
// verdict from oracle.full and merges `valid` instead of walking again.
// The ladders and the record are a pure function of (property, seed,
// options), so they are deterministic no matter which unit's lookup builds
// them.
struct CachedSeedTrace {
  spec::Trace trace;
  mon::CheckpointLadder checkpoints;
  spec::RefLadder oracle;
  ValidRecord valid;
  std::size_t stride = 0;  // 0: no ladder and no record
};

// Per-seed valid-trace cache shared by every worker of one run_campaigns()
// call: keyed by (job, seed) so batch runs over several properties never
// alias, generated on first touch by whichever of the seed's six units gets
// there first.
using SeedTraceCache = support::TraceCache<CachedSeedTrace>;

// Accumulator local to one shard; merged into the campaign result in shard
// index order after the pool drains.
struct ShardOutcome {
  CampaignResult partial;
  std::optional<AlphabetCoverage> alphabet;
  std::optional<RecognizerCoverage> recognizer;
};

struct Shard {
  std::size_t job = 0;
  std::size_t unit_begin = 0;  // within the job's seeds×slots space
  std::size_t unit_end = 0;
};

}  // namespace

// Per-thread scratch arena for the steady-state loop.  Each thread that
// runs shards — the process pool's workers and the calling thread — keeps
// one for the life of the thread, across campaigns.  Two lifetimes coexist
// inside it:
//   - the *buffers* live for the thread: the site list's and the
//     generation buffer's capacity ratchets up once and every later unit
//     and campaign reuses it;
//   - the *pool* (monitor, ViaPSL cross-check instance, seed-pass monitor)
//     and the site list's owner are scoped to one shard: begin_shard()
//     drops them, so the draw/stamp accounting is a pure function of the
//     deterministic shard layout and never of which thread ran which
//     shard — that is what keeps the instance counters identical between
//     serial and parallel runs — and nothing borrowed from one campaign
//     (monitors stamped from its plans, its cache entries) survives it.
struct UnitScratch {
  static constexpr std::size_t kNoSeed = static_cast<std::size_t>(-1);

  // The current mutant, as an edit of its seed's valid trace: its pieces
  // borrow that trace, so it is read only within the unit that wrote it,
  // while the seed's cache entry lives.
  MutantEdit edit;
  // The alphabet sites of seed `sites_seed`'s valid trace: the site-reading
  // units (Drop, Duplicate, SwapAdjacent) of one seed in one shard share
  // one scan.  A shard has one property, so the seed names the trace.
  std::vector<std::size_t> sites;
  std::size_t sites_seed = kNoSeed;
  // The generation buffer a cache entry's exact-size trace is copied from.
  spec::Trace local_trace;
  std::unique_ptr<mon::Monitor> monitor;  // chosen-backend pool slot
  std::unique_ptr<mon::Monitor> viapsl;   // check_viapsl pool slot
  // The cache-entry build's monitor: stamped once per shard, reset per
  // seed.  The valid unit accounts its logical draw in its own slot, so
  // this one stays out of the draw/stamp accounting.
  std::unique_ptr<mon::Monitor> ladder;

  /// Drops every pooled instance, the site list's owner and the edit's
  /// pieces (they point into a cache entry); buffers keep their capacity.
  /// Also the end-of-shard cleanup.
  void begin_shard() {
    monitor.reset();
    viapsl.reset();
    ladder.reset();
    sites_seed = kNoSeed;
    edit.view = {};
  }
};

namespace {

// Draws a pooled monitor instance of `backend` for one work unit: the first
// draw of a shard stamps from the shared plan, every later draw resets the
// existing instance (reset ≡ fresh, mon_reset_reuse_test) — valid units
// and mutation units alike.  `skip_reset` elides the physical reset when
// the caller is about to restore a checkpoint rung over the whole state
// anyway (a Snapshot restore and a compact-rung load both overwrite every
// field a reset touches; mon_snapshot_test and MonVmRung cover restoring
// into a dirty instance); the reuse accounting still counts the logical
// draw either way.
mon::Monitor& draw_pooled(std::unique_ptr<mon::Monitor>& slot,
                          const CampaignJob& job, mon::Backend backend,
                          ShardOutcome& out, bool skip_reset = false) {
  if (slot == nullptr) {
    slot = job.plan->compiled.instantiate(backend);
    ++out.partial.compile_stats.instances_stamped;
  } else {
    if (!skip_reset) slot->reset();
    ++out.partial.compile_stats.instance_reuses;
  }
  return *slot;
}

// The one seed pass of a cache entry: the reference oracle walks the valid
// trace, saving its state after every stride/4 events (at least 1), and a
// monitor from the thread's scratch (reset ≡ fresh) walks it once, keeping
// a rung after every `stride` events and the valid unit's whole record.
// The instance is engine overhead of the cache-entry build (like
// generation itself); the valid unit accounts the draw its record stands
// for, so the ladder cannot move a semantic counter.
void build_seed_pass(const CampaignJob& job, const CampaignOptions& options,
                     UnitScratch& scratch, CachedSeedTrace& entry) {
  entry.stride = options.checkpoint_stride;
  entry.oracle = spec::record_reference_ladder(
      *job.property, job.plan->compiled.plan(), entry.trace,
      end_of(entry.trace), std::max<std::size_t>(1, entry.stride / 4));
  if (scratch.ladder == nullptr) {
    scratch.ladder = job.plan->compiled.instantiate();
  } else {
    scratch.ladder->reset();
  }
  entry.valid = walk_valid_trace(job.plan->compiled, *scratch.ladder,
                                 entry.trace, &entry.checkpoints, entry.stride);
}

// Hands out the seed's cache entry.  Whichever unit asks first generates
// the trace — a pure function of (first_seed + s) — and, with a positive
// checkpoint stride, runs the seed pass, outside the cache's lock, while
// the others asking for the same seed wait and then hit.
const CachedSeedTrace& obtain_seed_trace(const CampaignJob& job,
                                         spec::Alphabet& ab,
                                         const CampaignOptions& options,
                                         std::size_t s, SeedTraceCache& cache,
                                         ShardOutcome& out,
                                         UnitScratch& scratch) {
  bool inserted = false;
  const std::uint64_t key =
      static_cast<std::uint64_t>(job.index) * options.seeds + s;
  const CachedSeedTrace& entry = cache.get_or_emplace(
      key,
      [&] {
        CachedSeedTrace fresh;
        // The entry lives as long as the campaign: generate into the
        // scratch buffer and copy once, at the trace's exact size.
        support::Rng rng = support::Rng::stream(options.first_seed + s, 0);
        generate_valid_into(*job.property, ab, rng, options.stimuli,
                            scratch.local_trace);
        fresh.trace.assign(scratch.local_trace.begin(),
                           scratch.local_trace.end());
        if (options.checkpoint_stride > 0) {
          build_seed_pass(job, options, scratch, fresh);
        }
        return fresh;
      },
      &inserted);
  if (inserted) {
    ++out.partial.trace_cache_misses;
  } else {
    ++out.partial.trace_cache_hits;
  }
  return entry;
}

// A mutant's floor rung: how many whole monitor-ladder rungs lie at or
// below its divergence position (0: none — or no ladder at all — so the
// mutant is replayed from the start).  MutantEdit::position guarantees the
// mutant shares its first `position` events with the valid trace, so after
// that many rungs the monitor state is exactly what the ladder recorded.
std::size_t floor_rungs(const CachedSeedTrace& seed, std::size_t position) {
  if (seed.stride == 0) return 0;
  return std::min(position / seed.stride, seed.checkpoints.count());
}

// A mutant's reference oracle reads its pieces in place.  With a ladder it
// resumes from its floor on the oracle ladder (possibly the initial state)
// and stops at the first rung past MutantEdit::aligned where its walk
// rejoins the valid trace's; without one it walks in full.  Either way the
// verdict bytes are identical (spec/reference.hpp).
spec::RefResult oracle_check(const CampaignJob& job, const MutantEdit& mutant,
                             const CachedSeedTrace& seed) {
  const sim::Time end_time = mutant.view.end_time();
  if (seed.stride == 0) {
    return spec::reference_check(*job.property, job.plan->compiled.plan(),
                                 mutant.view, end_time);
  }
  const spec::RefLadder& oracle = seed.oracle;
  return spec::resume_reference_check(
      *job.property, job.plan->compiled.plan(), oracle,
      std::min(mutant.position / oracle.stride, oracle.rungs.size()),
      mutant.view, end_time, mutant.aligned);
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

void run_valid_unit(const CampaignJob& job, spec::Alphabet& ab,
                    const CampaignOptions& options, std::size_t s,
                    SeedTraceCache& cache, UnitScratch& scratch,
                    ShardOutcome& out) {
  const CachedSeedTrace& seed =
      obtain_seed_trace(job, ab, options, s, cache, out, scratch);
  const spec::Trace& valid = seed.trace;
  ++out.partial.traces;
  out.partial.events += valid.size();
  // The seed pass already walked this trace with the monitor and the
  // oracle when the entry has a ladder.
  const bool seed_pass = seed.stride != 0;

  // One logical draw either way, so the instance counters do not depend on
  // whether this unit walks (a merged record needs no reset).
  mon::Monitor& monitor =
      draw_pooled(scratch.monitor, job, job.plan->compiled.chosen(), out,
                  /*skip_reset=*/seed_pass);
  ValidRecord walked;
  if (!seed_pass) walked = walk_valid_trace(job.plan->compiled, monitor, valid);
  const ValidRecord& record = seed_pass ? seed.valid : walked;
  const spec::RefResult ref =
      seed_pass ? seed.oracle.full
                : spec::reference_check(*job.property,
                                        job.plan->compiled.plan(), valid,
                                        end_of(valid));

  // Coverage merges into the shard's accumulators (order-independent
  // unions, like the shard merge itself).
  out.alphabet->merge(*record.alphabet);
  if (record.recognizer) {
    if (out.recognizer) {
      out.recognizer->merge(*record.recognizer);
    } else {
      out.recognizer.emplace(*record.recognizer);
    }
  }
  const bool monitor_ok = !record.violated;
  if (monitor_ok && !ref.rejected()) ++out.partial.valid_accepted;
  if (monitor_ok == ref.rejected()) ++out.partial.oracle_disagreements;
  out.partial.monitor_stats.merge(record.stats);

  if (options.check_viapsl) {
    // The cross-check instantiates from the shared clause set, pooled per
    // shard like the chosen-backend monitor.
    mon::Monitor& viapsl =
        draw_pooled(scratch.viapsl, job, mon::Backend::ViaPSL, out);
    for (const auto& ev : valid) viapsl.observe(ev.name, ev.time);
    viapsl.finish(end_of(valid));
    if (!ref.rejected() && viapsl.verdict() == mon::Verdict::Violated) {
      ++out.partial.viapsl_false_alarms;
    }
    out.partial.monitor_stats.merge(viapsl.stats());
  }
}

void run_mutation_unit(const CampaignJob& job, spec::Alphabet& ab,
                       const CampaignOptions& options, std::size_t s,
                       std::size_t slot, SeedTraceCache& cache,
                       UnitScratch& scratch, ShardOutcome& out) {
  LOOM_DASSERT(slot >= 1 && slot < kSlotsPerSeed);
  const spec::Property& property = *job.property;
  const CachedSeedTrace& seed =
      obtain_seed_trace(job, ab, options, s, cache, out, scratch);
  const spec::Trace& valid = seed.trace;
  const std::size_t k = slot - 1;
  auto& stats = out.partial.mutation[k];
  support::Rng rng = support::Rng::stream(options.first_seed + s, slot);
  // The valid trace's alphabet sites, listed once per seed and shard for
  // the site-reading units' mutants_per_kind draws; the other kinds get no
  // list (the scratch's may be another seed's).
  std::span<const std::size_t> sites;
  if (mutation_reads_sites(kAllKinds[k])) {
    if (scratch.sites_seed != s) {
      mutation_sites_into(valid, job.plan->compiled.alphabet(),
                          scratch.sites);
      scratch.sites_seed = s;
    }
    sites = scratch.sites;
  }
  // The mutant is an edit of the valid trace and is never copied out: the
  // oracle and the monitor read its pieces in place.
  const MutantEdit& mutant = scratch.edit;
  for (std::size_t m = 0; m < options.mutants_per_kind; ++m) {
    if (!mutate_edit(valid, kAllKinds[k], property, sites, rng,
                     scratch.edit)) {
      continue;
    }
    ++stats.applied;
    // Incremental replay: the oracle and the monitor both resume from the
    // mutant's floor on their ladders.  The monitor's rung is resolved
    // before drawing the monitor: when a restore will overwrite the whole
    // state, the draw below skips its redundant reset pass.
    if (!oracle_check(job, mutant, seed).rejected()) continue;
    const std::size_t rungs = floor_rungs(seed, mutant.position);
    ++stats.invalid;
    const std::size_t replay_begin = rungs * seed.stride;
    mon::Monitor& mmon =
        draw_pooled(scratch.monitor, job, job.plan->compiled.chosen(), out,
                    /*skip_reset=*/rungs > 0);
    // The restored state already carries the prefix's stats, verdict and
    // timing registers, so replaying only [floor, end) produces bytes that
    // match a full replay exactly (campaign_reference_diff_test).
    if (rungs > 0) {
      seed.checkpoints.restore_into(rungs - 1, mmon);
      LOOM_DASSERT(replay_begin <= mutant.view.size);
      ++out.partial.checkpoint_hits;
      out.partial.events_skipped += replay_begin;
    }
    replay_pieces(mmon, mutant.view, replay_begin);
    mmon.finish(mutant.view.end_time());
    if (mmon.verdict() == mon::Verdict::Violated) {
      ++stats.detected;
    } else {
      ++stats.missed;
    }
    out.partial.monitor_stats.merge(mmon.stats());
  }
}

void run_shard(const std::vector<CampaignJob>& jobs, spec::Alphabet& ab,
               const CampaignOptions& options, const Shard& shard,
               SeedTraceCache& cache, UnitScratch& scratch,
               ShardOutcome& out) {
  const CampaignJob& job = jobs[shard.job];
  // Fresh pool per shard (buffers keep their capacity): the
  // instance accounting stays a pure function of the shard layout, and
  // nothing borrowed survives in a worker's scratch past this campaign.
  scratch.begin_shard();
  out.alphabet.emplace(job.property->alphabet());
  // Workers share the one alphabet without locks or copies: setup
  // pre-interned every name stimuli generation touches, and noise_pool()
  // looks names up before interning, so generation is read-only here.
  for (std::size_t u = shard.unit_begin; u < shard.unit_end; ++u) {
    const std::size_t s = u / kSlotsPerSeed;
    const std::size_t slot = u % kSlotsPerSeed;
    if (slot == 0) {
      run_valid_unit(job, ab, options, s, cache, scratch, out);
    } else {
      run_mutation_unit(job, ab, options, s, slot, cache, scratch, out);
    }
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
void run_shards_in_process(const std::vector<CampaignJob>& jobs,
                           spec::Alphabet& ab, const CampaignOptions& options,
                           const std::vector<Shard>& shards,
                           std::size_t threads,
                           std::vector<ShardOutcome>& outcomes,
                           support::ThreadPool* pool = nullptr) {
  SeedTraceCache cache(/*shard_count=*/4 * threads);
  if (threads <= 1 || shards.size() <= 1) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      run_shard(jobs, ab, options, shards[i], cache, thread_scratch(),
                outcomes[i]);
    }
    return;
  }
  if (pool == nullptr) pool = &support::ThreadPool::shared(threads - 1);
  pool->for_each_index(
      shards.size(),
      [&](std::size_t i) {
        run_shard(jobs, ab, options, shards[i], cache, thread_scratch(),
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
void install_partial(const std::vector<CampaignJob>& jobs,
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
wire::WorkerRequestData make_base_request(const std::vector<CampaignJob>& jobs,
                                          const spec::Alphabet& ab,
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
  base.options.plan_cache = nullptr;
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
        {i, shards[i].job, shards[i].unit_begin, shards[i].unit_end});
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
void run_shards_supervised(const std::vector<CampaignJob>& jobs,
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
    // Terminating: renders the failure over the final wait status.
    std::function<std::string(int)> describe;
  };

  std::vector<Slot> slots(workers);
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
  // the escalation) and settles the slot once the worker is reaped.
  // `describe` is stored, so it must capture by value.
  const auto retire = [&](std::size_t w,
                          std::function<std::string(int)> describe) {
    Slot& slot = slots[w];
    slot.reader.reset();
    slot.proc.close_to_child();
    slot.proc.close_from_child();
    slot.proc.kill(SIGTERM);
    slot.describe = std::move(describe);
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
        const std::string text = who_of(w) + ": " + slot.diagnostic;
        retire(w, [text](int st) {
          return text + " (" + describe_worker_exit(st) + ")";
        });
      }
      return;
    }
    slot.diagnostic = slot.describe(status) + " (attempt " +
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
      const std::string text = who + " " + describe_worker_exit(status);
      retire(w, [text](int) { return text; });
      return;
    }
    if (slot.done_count != slot.partials.size() ||
        slot.partials.size() != assigned[w].size()) {
      const std::string text =
          who + ": returned " + std::to_string(slot.partials.size()) +
          " partials for " + std::to_string(assigned[w].size()) +
          " assigned shards";
      retire(w, [text](int) { return text; });
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
        retire(w, [who](int status) {
          return who + ": stream ended before its Done frame (" +
                 describe_worker_exit(status) + ")";
        });
        return;
      }
      if (st != wire::FdFrameReader::Status::Frame) {
        const std::string text = who + ": " + err.to_string();
        retire(w, [text](int) { return text; });
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
            const std::string text = who + ": " + d.error().to_string();
            retire(w, [text](int) { return text; });
            return;
          }
          if (!d.exhausted()) {
            const std::string text =
                who + ": trailing bytes after a partial payload";
            retire(w, [text](int) { return text; });
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
            const std::string text = who + ": partial for foreign shard " +
                                     std::to_string(part.shard);
            retire(w, [text](int) { return text; });
            return;
          }
          slot.partials.push_back(std::move(part));
          break;
        }
        case wire::Payload::WorkerDone: {
          if (!wire::decode_worker_done(d, slot.done_count) ||
              !d.exhausted()) {
            const std::string text = who + ": malformed Done frame";
            retire(w, [text](int) { return text; });
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
          const std::string text = who + " reported: " + message;
          retire(w, [text](int) { return text; });
          return;
        }
        default: {
          const std::string text =
              who + ": unexpected " + wire::to_string(frame.tag) + " frame";
          retire(w, [text](int) { return text; });
          return;
        }
      }
    }
  };

  for (std::size_t w = 0; w < workers; ++w) {
    if (!dispatch(w)) {
      const std::string text = who_of(w) + ": " + slots[w].diagnostic;
      retire(w, [text](int status) {
        return text + " (" + describe_worker_exit(status) + ")";
      });
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
        const std::string text = who_of(w) + ": timed out after " +
                                 std::to_string(timeout_ms) +
                                 " ms waiting for a frame";
        retire(w, [text](int) { return text; });
      }
      if (slot.state == Slot::State::Reaping) {
        if (slot.proc.wait_for(0, status)) {
          check_exit(w, status);
        } else if (now >= slot.deadline) {
          const std::string who = who_of(w);
          retire(w, [who](int st) {
            return who + ": kept running after its Done frame (" +
                   describe_worker_exit(st) + ")";
          });
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
    sup.failures.push_back({w, i, shards[i].unit_begin, shards[i].unit_end,
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
void run_shards_cross_process(const std::vector<CampaignJob>& jobs,
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
  // Campaign Auto resolves the Drct/Vm cost-model tie to Vm — the
  // wall-clock winner, whose checkpoint rungs are compact copies.
  copt.prefer_vm = true;
  for (std::size_t p = 0; p < properties.size(); ++p) {
    PropertyPlan& plan = plans[p];
    plan.property = properties[p];
    plan.index = p;
    if (options.plan_cache != nullptr) {
      // Cross-campaign memoization: a hit shares an earlier campaign's
      // immutable artifacts (CompiledProperty is a cheap handle copy), a
      // miss compiles and publishes for the next campaign.  plans_built
      // counts actual translations, so hits leave it at 0.
      bool compiled_now = false;
      plan.compiled = options.plan_cache->get_or_compile(*properties[p], ab,
                                                         copt, &compiled_now);
      plan.base_stats.plans_built = compiled_now ? 1 : 0;
      plan.base_stats.plan_cache_hits = compiled_now ? 0 : 1;
      plan.base_stats.plan_cache_misses = compiled_now ? 1 : 0;
    } else {
      plan.compiled = mon::CompiledProperty::compile(*properties[p], ab, copt);
      plan.base_stats.plans_built = 1;
    }
    plan.base_stats.viapsl_encodings =
        plan.compiled.encoding() != nullptr ? 1 : 0;
    plan.base_stats.backend_requested = plan.compiled.requested();
    plan.base_stats.backend_chosen = plan.compiled.chosen();
  }
  return plans;
}

std::vector<CampaignResult> run_campaigns(
    const std::vector<const spec::Property*>& properties, spec::Alphabet& ab,
    const CampaignOptions& options) {
  // Setup runs serially on the caller: intern everything stimuli
  // generation could lazily intern, then translate every property exactly
  // once — plan tables, backend choice, ViaPSL clause sets — so both the
  // alphabet and the plans are strictly read-only once workers share them.
  pre_intern_stimuli_names(ab, options.stimuli);
  const std::vector<PropertyPlan> plans =
      compile_property_plans(properties, ab, options);
  std::vector<CampaignJob> jobs(properties.size());
  for (std::size_t p = 0; p < properties.size(); ++p) {
    jobs[p].property = properties[p];
    jobs[p].plan = &plans[p];
    jobs[p].index = p;
  }

  // Shard the flattened (property × seed × slot) space.  Shards never span
  // properties so each merges into exactly one result.
  std::size_t threads = options.threads != 0
                            ? options.threads
                            : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t units_per_job = options.seeds * kSlotsPerSeed;
  std::size_t shard_size = options.shard_size;
  if (shard_size == 0) {
    const std::size_t total_units = units_per_job * jobs.size();
    shard_size = std::max<std::size_t>(1, total_units / (threads * 4));
  }
  std::vector<Shard> shards;
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    for (std::size_t begin = 0; begin < units_per_job; begin += shard_size) {
      shards.push_back(
          {p, begin, std::min(units_per_job, begin + shard_size)});
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
    results[p].compile_stats = plans[p].base_stats;
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
    result.compile_stats.merge(out.partial.compile_stats);
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
    // Re-parse the normalized property texts — the same to_string/parse
    // round-trip the cross-campaign plan cache keys on.
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
    const std::size_t units_per_job = options.seeds * kSlotsPerSeed;
    std::vector<Shard> shards;
    shards.reserve(req.shards.size());
    for (const auto& s : req.shards) {
      if (s.job >= props.size() || s.unit_begin > s.unit_end ||
          s.unit_end > units_per_job) {
        send_error("worker: shard assignment out of range");
        return kWorkerExitBadRequest;
      }
      shards.push_back({static_cast<std::size_t>(s.job),
                        static_cast<std::size_t>(s.unit_begin),
                        static_cast<std::size_t>(s.unit_end)});
    }

    // The same serial setup run_campaigns does, then the assigned shards
    // on the in-process engine (this worker's own threads / trace cache).
    pre_intern_stimuli_names(ab, options.stimuli);
    std::vector<const spec::Property*> prop_ptrs;
    prop_ptrs.reserve(props.size());
    for (const auto& p : props) prop_ptrs.push_back(&p);
    const std::vector<PropertyPlan> plans =
        compile_property_plans(prop_ptrs, ab, options);
    std::vector<CampaignJob> jobs(props.size());
    for (std::size_t p = 0; p < props.size(); ++p) {
      jobs[p].property = prop_ptrs[p];
      jobs[p].plan = &plans[p];
      jobs[p].index = p;
    }
    const std::size_t threads =
        options.threads != 0
            ? options.threads
            : std::max<std::size_t>(1, std::thread::hardware_concurrency());
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
      run_shards_in_process(jobs, ab, options, shards, threads, outcomes,
                            pool ? &*pool : nullptr);
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
  const double plan_hits = static_cast<double>(compile_stats.plan_cache_hits);
  const double plan_misses =
      static_cast<double>(compile_stats.plan_cache_misses);
  const double stamped = static_cast<double>(compile_stats.instances_stamped);
  const double reuses = static_cast<double>(compile_stats.instance_reuses);
  const double skipped = static_cast<double>(events_skipped);
  // A restored rung carries its prefix's stats, so monitor_stats.events
  // already counts every skipped event: it is the whole stepped-or-skipped
  // total, and the ratio's only denominator.
  const double observed = static_cast<double>(monitor_stats.events);
  return {
      {"trace_cache_hit_rate", ratio(trace_hits, trace_hits + trace_misses)},
      {"plan_cache_hit_rate", ratio(plan_hits, plan_hits + plan_misses)},
      {"instance_reuse_rate", ratio(reuses, stamped + reuses)},
      {"checkpoint_hits", static_cast<double>(checkpoint_hits)},
      {"events_skipped", skipped},
      {"skip_ratio", ratio(skipped, observed)},
      {"backend_viapsl",
       compile_stats.backend_chosen == mon::Backend::ViaPSL ? 1.0 : 0.0},
      {"backend_vm",
       compile_stats.backend_chosen == mon::Backend::Vm ? 1.0 : 0.0},
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
