//! Verification campaign runner: the paper's Fig. 1 loop as one call.
//!
//! For a property, run_campaign() generates valid stimuli across seeds,
//! checks them with the chosen runtime monitor and the declarative
//! reference, then applies every mutation operator repeatedly and records
//! how violations are detected.  The result aggregates pass/fail counts,
//! mutation-kill statistics and structural coverage — the input the paper's
//! "coverage improver" would consume.
//!
//! The loop is embarrassingly parallel and the engine exploits that: the
//! (seed × property × mutation-kind) space is sharded into independent work
//! units, each drawing from its own support::Rng stream keyed by the unit
//! index, and per-shard results are merged with an order-independent
//! reduction.
//!
//! Ownership: run_campaigns() owns every artifact it creates (compiled
//! plans, trace cache); its shards run on the process-wide
//! support::ThreadPool, which outlives the call and is shared by
//! concurrent calls.  Callers keep ownership of the properties and the
//! alphabet, which must outlive the call.  Thread-safety: the alphabet
//! is pre-interned during serial setup and then shared strictly read-only;
//! compiled plans and cached traces are immutable once published.
//! Determinism contract (enforced by tier-1 tests): every run equals the
//! literal Fig. 1 loop of tests/reference_campaign.hpp — serial, in
//! process, a fresh monitor per unit, a full oracle walk and a full replay
//! per materialized mutant — at any threads, shard_size,
//! checkpoint_stride and workers (campaign_reference_diff_test; serial ≡
//! parallel also in campaign_parallel_test, in-process ≡ cross-process in
//! campaign_process_diff_test).  Same counts, same coverage ratios, same
//! report text.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "abv/coverage.hpp"
#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "mon/compiled.hpp"
#include "mon/stats.hpp"

namespace loom::abv {

/// Test-only misbehavior injection for the cross-process worker protocol
/// (tests/campaign_worker_fault_test.cpp, campaign_supervision_test.cpp):
/// a faulted worker deliberately violates the wire contract so the
/// parent's failure handling — and since the supervisor landed, its
/// deadline / retry / degradation machinery — can be pinned.  Always None
/// in real runs.  The per-frame faults strike the partial frame at index
/// CampaignOptions::worker_fault_at (0 = the first, the historical
/// behavior); an index past the worker's partial count disarms the fault.
/// The supervisor clears the fault on re-dispatch, so a retried attempt
/// runs clean — the deterministic "fails once, then recovers" shape the
/// seventh invariant is locked against.
enum class WorkerFault : std::uint8_t {
  None = 0,
  CorruptFrame,       // emit one partial frame with a corrupted header
  DieMidStream,       // exit after writing half a frame
  FutureVersion,      // stamp a future wire-format version on one frame
  Hang,               // go silent instead of a frame; ignores SIGTERM, so
                      // only the supervisor's SIGKILL escalation ends it
  SlowStream,         // trickle one byte per interval from that frame on —
                      // alive by poll()'s lights, dead by the deadline's
  PartialWritesOnly,  // send every partial but exit before the Done trailer
  ExitBeforeRequest,  // exit silently right after reading the request, as
                      // if the process died before starting work
  LingerAfterDone,    // send every partial and the Done trailer, then keep
                      // running past the supervisor's reap grace before
                      // exiting 0 (armed only while worker_fault_at is
                      // below the worker's partial count)
};

struct CampaignOptions {
  std::uint64_t first_seed = 1;
  std::size_t seeds = 10;
  StimuliOptions stimuli;           // rounds / noise per generated trace
  std::size_t mutants_per_kind = 10;
  bool check_viapsl = false;        // additionally run the ViaPSL monitor

  /// Monitor construction executing the campaign's units: Drct, ViaPSL, or
  /// Auto — the per-property psl::cost_model choice (which picks Drct for
  /// every property the paper evaluates; see mon::CompiledProperty).  The
  /// chosen backend is part of the semantic result: it decides which
  /// monitor produces the verdicts and the Figure-6 accounting.
  mon::Backend backend = mon::Backend::Auto;

  /// Threads for the sharded engine: 1 runs the shards serially on the
  /// calling thread, 0 asks the hardware, N>1 runs them on the calling
  /// thread plus N-1 workers of the process-wide pool (grown to fit on
  /// first use, kept for later campaigns).  The result does not depend on
  /// this knob.
  std::size_t threads = 1;
  /// Work units per shard (a unit is one seed's valid phase or one seed's
  /// batch of one mutation kind); 0 picks a size that keeps every worker
  /// busy.  The result does not depend on this knob either.
  std::size_t shard_size = 0;

  /// Incremental replay.  The engine generates each seed's valid trace
  /// once into a per-seed cache (support::TraceCache) shared by the seed's
  /// six work units; while that entry is built, it records the monitor's
  /// state every `checkpoint_stride` events of the valid trace — compact
  /// rungs in one slab per seed for a Vm monitor (mon::vm_save_rung), a
  /// mon::Snapshot per rung for Drct and ViaPSL
  /// (mon/checkpoint_ladder.hpp).  A mutant whose MutantEdit::position
  /// proves a shared prefix then restores the floor checkpoint and replays
  /// only [floor, end) — O(suffix) instead of O(trace) per mutant.
  /// Smaller strides skip more prefix per mutant but store more rungs per
  /// seed.  The default 8 is affordable because a Vm rung is a
  /// fixed-size copy of the frame (80–128 B on the bundled properties);
  /// with Snapshot rungs it would cost about 30% more peak memory on
  /// seed-heavy campaigns.  It also sets the reference oracle's ladder,
  /// recorded four times finer (every max(1, checkpoint_stride / 4)
  /// events — every 2 at the default; an oracle rung is a few dozen
  /// bytes), from which each mutant's oracle check resumes and where it
  /// stops once its walk rejoins the valid trace's.  0 disables both
  /// ladders (full replay and full oracle walks).  Result-neutral at any
  /// stride: campaign_reference_diff_test holds every stride to the
  /// reference loop byte for byte.
  std::size_t checkpoint_stride = 8;

  /// Cross-process sharding: 0 runs every shard in this process (threads
  /// decide the parallelism as before); N > 0 spawns N worker subprocesses
  /// speaking the versioned wire format (src/wire/) over pipes, each
  /// running a round-robin slice of the same shard layout and returning
  /// wire-encoded partial results that merge through the same reduction.
  /// The sixth differential invariant — in-process ≡ cross-process, locked
  /// by campaign_process_diff_test — makes this knob result-neutral like
  /// the others, with one documented exception: the trace-cache hit/miss
  /// *diagnostics* become per-process (a seed split across workers misses
  /// once per worker), which report() and the semantic result never see.
  /// A worker failure (death, timeout, corrupt frame, foreign version) is
  /// retried per worker_retries; once retries are exhausted it raises
  /// WorkerFailure — or, with allow_partial, degrades the result instead.
  /// Nothing from a failed attempt is ever merged.
  std::size_t workers = 0;
  /// How to start a worker: an argv to exec (e.g. {"loomcheck",
  /// "--worker"}; the child speaks wire on stdin/stdout), or empty to
  /// fork without exec — the child runs run_campaign_worker in-image,
  /// which is what tests and single-binary embedders use.
  std::vector<std::string> worker_command;
  /// See WorkerFault; forwarded to workers so tests can inject protocol
  /// violations deterministically.
  WorkerFault worker_fault = WorkerFault::None;
  /// Index of the partial frame worker_fault strikes (the n-th-partial
  /// fault variants); past the worker's partial count the fault never
  /// fires.  Ignored by ExitBeforeRequest, which faults before any frame.
  std::size_t worker_fault_at = 0;

  /// Supervision deadline, per frame: the parent fails a worker that has
  /// not completed a frame within this many milliseconds (poll(2)-based
  /// multiplexed drain; a trickling stream counts as stalled).  0 — the
  /// default — waits forever, the pre-supervisor behavior.  A failed
  /// worker is SIGTERM'd, granted a short grace, then SIGKILL'd, so even
  /// a worker ignoring pipe EOF cannot wedge the campaign.
  std::size_t worker_timeout_ms = 0;
  /// Re-dispatch budget per worker slot: when a worker dies, times out or
  /// violates the protocol, its exact shard assignment is re-sent to a
  /// fresh worker up to this many times.  The partials of every failed
  /// attempt are discarded wholesale and the shards recomputed, so a
  /// retried run merges byte-identically to a clean one — the seventh
  /// invariant (campaign_supervision_test).  Retry accounting lands in
  /// CampaignResult::worker_retries, an engine diagnostic like the
  /// trace-cache split, never in the semantic result.
  std::size_t worker_retries = 0;
  /// Opt-in graceful degradation: when a worker slot exhausts its retries,
  /// record its shards as unexecuted (CampaignResult::shard_failures, the
  /// `degraded()` flag and report()'s "degraded:" lines) and keep every
  /// other worker's results, instead of throwing WorkerFailure and
  /// discarding everything.  Off by default: all-or-nothing like PR 8.
  bool allow_partial = false;

  /// Optional cross-campaign plan cache (borrowed; must outlive the call):
  /// when set, compile_property_plans() memoizes each property's
  /// translate-once artifacts under its normalized text, so repeated
  /// run_campaigns() calls in long-lived embedders skip recompilation.
  /// The hit/miss split lands in CampaignResult::compile_stats.
  mon::CompiledPropertyCache* plan_cache = nullptr;
};

struct MutationStats {
  std::size_t applied = 0;    // mutation operator produced a trace
  std::size_t invalid = 0;    // reference rejected the mutant
  std::size_t detected = 0;   // Drct monitor rejected it too
  std::size_t missed = 0;     // reference rejected but the monitor did not

  /// Order-independent shard reduction (all fields are sums).
  void merge(const MutationStats& other) {
    applied += other.applied;
    invalid += other.invalid;
    detected += other.detected;
    missed += other.missed;
  }
};

/// Accounting of the translate-once compilation layer.  The backend fields
/// are semantic (they name the monitor construction that produced the
/// result); the instance counters are engine diagnostics like the trace
/// cache split — deterministic for a given knob setting, excluded from
/// report(), and compared separately by the differential tests.
struct CompileStats {
  std::size_t plans_built = 0;        // one-time property translations
  std::size_t viapsl_encodings = 0;   // materialized clause sets
  std::size_t instances_stamped = 0;  // monitors constructed for work units
  std::size_t instance_reuses = 0;    // Monitor::reset() reuses of those
  /// Cross-campaign plan-cache split (both 0 without a plan_cache): a miss
  /// compiled this property fresh, a hit reused an earlier campaign's
  /// artifacts.  Diagnostics like the instance counters — deterministic
  /// for a given cache history, excluded from report().
  std::size_t plan_cache_hits = 0;
  std::size_t plan_cache_misses = 0;
  mon::Backend backend_requested = mon::Backend::Auto;
  mon::Backend backend_chosen = mon::Backend::Drct;

  /// Order-independent shard reduction: counters are sums, the backend
  /// fields are per-property constants (every shard agrees on them).
  void merge(const CompileStats& other) {
    plans_built += other.plans_built;
    viapsl_encodings += other.viapsl_encodings;
    instances_stamped += other.instances_stamped;
    instance_reuses += other.instance_reuses;
    plan_cache_hits += other.plan_cache_hits;
    plan_cache_misses += other.plan_cache_misses;
  }
};

/// One property's compiled campaign artifacts: the translate-once
/// mon::CompiledProperty (recognizer tables, interned alphabet, optional
/// ViaPSL clause set, cost-model backend choice) plus the campaign-side
/// bookkeeping.  Built serially by compile_property_plans() before workers
/// start and shared strictly read-only across all shards.
struct PropertyPlan {
  const spec::Property* property = nullptr;
  mon::CompiledProperty compiled;
  std::size_t index = 0;      // position in run_campaigns' property list
  CompileStats base_stats;    // plans/encodings built + backend fields
};

/// Compiles every property up front: one plan, one optional ViaPSL clause
/// set and one resolved backend per property, all pure functions of
/// (property, options).  run_campaigns() calls this itself; it is exposed
/// for tests and benches that want to inspect or reuse the plans.
std::vector<PropertyPlan> compile_property_plans(
    const std::vector<const spec::Property*>& properties,
    const spec::Alphabet& ab, const CampaignOptions& options);

struct CampaignResult {
  std::size_t traces = 0;
  std::size_t events = 0;
  std::size_t valid_accepted = 0;   // valid traces accepted by the monitor
  std::size_t oracle_disagreements = 0;  // monitor verdict != reference
  std::size_t viapsl_false_alarms = 0;   // ViaPSL rejected a reference-pass
  MutationStats mutation[5];        // indexed by MutationKind
  double alphabet_coverage = 0.0;
  double recognizer_state_coverage = 0.0;  // Drct antecedents only; else 1.0

  /// Figure-6-style operation accounting summed over every monitor the
  /// campaign ran (valid phases, mutants and ViaPSL checks alike).
  mon::MonitorStats monitor_stats;

  /// Translate-once accounting: plans built, backend chosen, instances
  /// stamped/reused.  The backend fields are semantic; the counters are
  /// engine diagnostics (see CompileStats).
  CompileStats compile_stats;

  /// Per-seed trace cache accounting.  The split is deterministic — exactly one miss per seed, every other unit
  /// of that seed hits, regardless of thread count — but it is engine
  /// diagnostics, not part of the semantic result: report() excludes it
  /// and the differential tests compare it separately.
  std::size_t trace_cache_hits = 0;
  std::size_t trace_cache_misses = 0;

  /// Incremental-replay accounting (both 0 with checkpoint_stride 0 or no
  /// usable ladder): mutants restored from a checkpoint, and the
  /// shared-prefix events those restores skipped re-stepping.  Like the
  /// trace-cache split these are deterministic engine diagnostics —
  /// excluded from the default report() so incremental runs stay
  /// byte-identical to full-replay runs; report(ab, true) appends them.
  std::size_t checkpoint_hits = 0;
  std::size_t events_skipped = 0;

  /// Worker re-dispatches that touched this property's shards (engine
  /// diagnostic, 0 without cross-process supervision).  A retried run's
  /// semantic result is byte-identical to a clean run's — the seventh
  /// invariant — so this count lives with the other per-process
  /// diagnostics: excluded from report() and results_identical.
  std::size_t worker_retries = 0;

  /// One shard a cross-process campaign could not execute: its worker slot
  /// exhausted every retry and options.allow_partial chose degradation
  /// over WorkerFailure.  The diagnostic is the slot's final failure —
  /// positioned wire error, timeout description, or wait status.  Unlike
  /// the counters above this IS semantic: the shard's units are missing
  /// from every aggregate, degraded() is true, ok() is false and report()
  /// names each lost shard.
  struct ShardFailure {
    std::size_t worker = 0;      // worker slot whose retries ran out
    std::size_t shard = 0;       // index in the campaign's shard layout
    std::size_t unit_begin = 0;  // the unexecuted unit range [begin, end)
    std::size_t unit_end = 0;
    std::string diagnostic;
  };
  /// Lost shards in shard-index order; empty unless allow_partial
  /// absorbed a worker failure.
  std::vector<ShardFailure> shard_failures;

  /// True when allow_partial absorbed at least one exhausted worker slot:
  /// the aggregates cover only the surviving shards.
  bool degraded() const { return !shard_failures.empty(); }

  /// One engine diagnostic as a named counter for benchmark export.  The
  /// names are the schema of the tracked BENCH_*.json baselines that
  /// tools/bench_compare.py diffs — renaming one orphans the recorded perf
  /// trajectory, so treat them as API.
  struct DiagnosticCounter {
    const char* name;
    double value;
  };

  /// The engine diagnostics as stable named counters: trace/plan-cache hit
  /// rates, instance reuse rate, the incremental-replay skip ratio and the
  /// chosen backend (0 = Drct, 1 = ViaPSL).  Every ratio guards its
  /// denominator — a zero-work campaign (no events, no mutants, caches
  /// off) reports 0, never NaN — so the values can go straight into
  /// benchmark counters and JSON baselines.
  std::vector<DiagnosticCounter> diagnostic_counters() const;

  /// A healthy campaign: monitors agree with the oracle everywhere, all
  /// valid traces pass, no invalid mutant escapes detection, and every
  /// shard actually executed (a degraded run cannot claim a pass over
  /// units it never ran).
  bool ok() const {
    if (degraded()) return false;
    if (oracle_disagreements != 0 || viapsl_false_alarms != 0) return false;
    if (valid_accepted != traces) return false;
    for (const auto& m : mutation) {
      if (m.missed != 0) return false;
    }
    return true;
  }

  /// Human-readable summary.  The default report contains only the
  /// semantic result (every performance knob leaves it byte-identical —
  /// that is the differential tests' yardstick); `with_engine_diagnostics`
  /// appends the trace-cache and checkpoint-replay accounting lines.  A
  /// degraded run adds one "degraded:" line per lost shard — part of the
  /// semantic result, since those units are missing from the aggregates.
  std::string report(const spec::Alphabet& ab,
                     bool with_engine_diagnostics = false) const;
};

CampaignResult run_campaign(const spec::Property& property,
                            spec::Alphabet& ab,
                            const CampaignOptions& options);

/// Batch form: one campaign per property, all sharded onto the same pool so
/// short properties backfill the tail of long ones.  results[i] is
/// bit-identical to run_campaign(*properties[i], ab, options).
std::vector<CampaignResult> run_campaigns(
    const std::vector<const spec::Property*>& properties, spec::Alphabet& ab,
    const CampaignOptions& options);

/// Raised by run_campaign(s) when a worker subprocess dies, times out,
/// corrupts its stream or violates the wire protocol, after the worker's
/// retry budget (CampaignOptions::worker_retries) is spent and
/// allow_partial is off.  The message carries the worker index, the
/// attempt count, and the positioned wire diagnostic, timeout or exit
/// description; no partial results from any worker have been merged when
/// this throws.
struct WorkerFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Worker-process exit codes (pinned by campaign_worker_fault_test; part
/// of the protocol like the frame layout).  126/127 mirror the shell
/// convention: the worker *command* failed before any wire was spoken,
/// and the parent's diagnostic names that instead of a bare code.
constexpr int kWorkerExitOk = 0;           // Done frame sent, stream clean
constexpr int kWorkerExitBadRequest = 3;   // malformed/missing request frame
constexpr int kWorkerExitBadProperty = 4;  // property text failed to parse
constexpr int kWorkerExitIo = 5;           // pipe write failed mid-stream
constexpr int kWorkerExitExecSetup = 126;  // dup2/pipe setup failed pre-exec
constexpr int kWorkerExitExecMissing = 127;  // execvp itself failed

/// The worker side of cross-process sharding: reads one WorkerRequest
/// frame from `in_fd`, runs the assigned shards with the in-process
/// engine, writes one WorkerPartial frame per shard plus a WorkerDone
/// trailer to `out_fd`, and returns an exit code.  `loomcheck --worker`
/// and the fork-only child both land here; tests call it directly on
/// pipes to pin the exit codes.  `request_timeout_ms` bounds the wait for
/// the request frame (`--worker-timeout-ms=` on the CLIs' worker mode):
/// an abandoned worker whose parent never writes exits kWorkerExitBadRequest
/// instead of blocking forever; 0 waits indefinitely.
int run_campaign_worker(int in_fd, int out_fd,
                        std::size_t request_timeout_ms = 0);

}  // namespace loom::abv
