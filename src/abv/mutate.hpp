//! Mutation operators: violation injection for negative testing.
//!
//! Each operator perturbs a (typically valid) trace in a way that tends to
//! violate a loose-ordering property: dropping a required event, duplicating
//! a block element past its bound, swapping events across a fragment
//! boundary, firing the trigger early, or stalling a timed consequent past
//! its deadline.  Not every mutation of every trace yields a violation (a
//! swap inside a fragment is legal by design!): callers decide expected
//! verdicts with the reference checker.
//!
//! Representation: a mutant is an edit of its source trace, not a copy.
//! mutate_edit() writes a MutantEdit — the source trace's runs around at
//! most two patch events, as a spec::TraceView of at most five pieces —
//! and the campaign engine feeds those pieces straight to the oracle
//! (spec::resume_reference_check) and the monitor
//! (mon::Monitor::observe_shifted), so its mutants are never copied out.
//! Every other entry point is that edit plus materialize(): mutate()
//! returns a fresh trace, mutate_into() writes into a caller-owned
//! MutationResult, reusing its buffer's capacity across calls.
//! Ownership and lifetime: a MutantEdit borrows the source trace — its
//! pieces point into it and into the edit's own patch — so it is valid
//! while the source trace lives and stays unmoved (in the campaign engine:
//! for the seed task that drew it, which owns the trace in the thread's
//! scratch), and it can be neither copied nor moved.  Inputs
//! are never modified.
//! The sites overloads read a caller-owned site list (mutation_sites_into),
//! so a caller that mutates one trace many times scans it once; the
//! campaign engine builds the list once per seed task, in its per-thread
//! scratch.
//! Thread-safety: pure functions of (trace, property, rng) — safe to call
//! concurrently as long as each caller owns its Rng and its output.  Only
//! the NameSet overloads keep hidden state: a small thread-local site
//! index they rebuild on every call for the kinds that read sites, which
//! keeps them allocation-free in steady state without changing any
//! result.  The sites overloads have none.
//! Determinism: a given Rng stream yields the same mutant sequence on any
//! thread; the campaign engine keys streams by (seed, mutation slot) so
//! its mutants never depend on scheduling.  Every entry point draws the
//! same Rng values and yields the same kind, position, aligned and bytes
//! (materialized) as every other — even when the scratch arrives dirty
//! from an unrelated earlier call (locked by the MutateIntoFuzz,
//! MutationSites and MutantView suites of
//! tests/abv_mutate_position_test.cpp).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "spec/ast.hpp"
#include "spec/reference.hpp"
#include "support/rng.hpp"

namespace loom::abv {

enum class MutationKind {
  Drop,          // remove one property event
  Duplicate,     // repeat one property event
  SwapAdjacent,  // exchange two neighbouring property events
  EarlyTrigger,  // insert the trigger / reset name early
  StallDeadline, // push a suffix past the timed bound
};

const char* to_string(MutationKind k);

struct MutationResult {
  spec::Trace trace;
  MutationKind kind = MutationKind::Drop;
  /// Index of the first event at which the mutant may diverge from the
  /// source trace — NOT "the index of the mutated event".  The load-bearing
  /// contract (the checkpointed campaign engine replays mutants from a
  /// snapshot at or before this index, and abv_mutate_position_test locks
  /// it):
  ///
  ///     trace[0, position) == mutant[0, position), element for element.
  ///
  /// Per kind:
  ///   Drop          index of the removed event (the mutant holds the old
  ///                 successor there);
  ///   Duplicate     index of the inserted copy (original index + 1);
  ///   SwapAdjacent  index of the first of the two swapped events;
  ///   EarlyTrigger  index of the inserted trigger event;
  ///   StallDeadline index of the first time-shifted event.
  ///
  /// position <= source trace size and position <= mutant size always
  /// hold; the exact first differing element can lie later only when the
  /// source trace happens to repeat the displaced event bit-for-bit (the
  /// guarantee above is what downstream consumers may rely on).
  std::size_t position = 0;
  /// Index from which the mutant is the source trace again, re-indexed by
  /// δ = mutant size − source size and re-timed by τ = mutant.back().time −
  /// trace.back().time (the end-time shift; an empty trace ends at 0):
  ///
  ///     mutant[j] == {trace[j − δ].name, trace[j − δ].time + τ}
  ///                                         for every j >= aligned.
  ///
  /// Per kind (δ in parentheses; τ is 0 unless the edit changed the time
  /// of the last event):
  ///   Drop          position                 (δ = −1);
  ///   Duplicate     position + 1, past the copy  (δ = +1);
  ///   SwapAdjacent  one past the second swapped event  (δ = 0);
  ///   EarlyTrigger  position + 1, past the inserted event  (δ = +1);
  ///   StallDeadline position                 (δ = 0, τ = the stall).
  ///
  /// position <= aligned <= mutant size.  Past `aligned` the mutant's
  /// reference walk can rejoin the source trace's, where
  /// spec::resume_reference_check stops (tests/abv_mutate_position_test.cpp
  /// locks the contract).  Time sums are assumed not to saturate.
  std::size_t aligned = 0;
};

/// A mutant as an edit of its source trace S (n = |S|, `·` joins pieces;
/// every piece is unshifted but StallDeadline's tail):
///   Drop(p)           S[0,p) · S[p+1,n)
///   Duplicate(p)      S[0,p+1) · {S[p].name, S[p].time+1ps} · S[p+1,n)
///   SwapAdjacent(a,b) S[0,a) · {S[b].name, S[a].time} · S[a+1,b)
///                       · {S[a].name, S[b].time} · S[b+1,n)
///   EarlyTrigger(p)   S[0,p+1) · {reset, S[p].time+1ps} · S[p+1,n)
///   StallDeadline(p)  S[0,p) · S[p,n) shifted by 2·bound + 1ns
/// (empty pieces are left out).  kind, position and aligned are exactly
/// MutationResult's.  The view's pieces point into the source trace and
/// into `patch`, so the edit is valid while the source trace is, and is
/// neither copyable nor movable.
struct MutantEdit {
  MutationKind kind = MutationKind::Drop;
  std::size_t position = 0;
  std::size_t aligned = 0;
  spec::TimedEvent patch[2];
  spec::TraceView view;

  MutantEdit() = default;
  MutantEdit(const MutantEdit&) = delete;
  MutantEdit& operator=(const MutantEdit&) = delete;
};

/// The one mutation implementation: applies `kind` at a random applicable
/// position of `trace`, as an edit.  Same sites precondition, Rng draws
/// and return value as the sites overload of mutate_into(); on false
/// `out` is unspecified but for its kind.
bool mutate_edit(const spec::Trace& trace, MutationKind kind,
                 const spec::Property& property,
                 std::span<const std::size_t> sites, support::Rng& rng,
                 MutantEdit& out);

/// Writes the edit's mutant into `out` (trace bytes, kind, position,
/// aligned), reusing the trace buffer's capacity.
void materialize(const MutantEdit& edit, MutationResult& out);

/// Applies `kind` at a random applicable position; nullopt when the trace
/// offers no applicable site (e.g. StallDeadline on an antecedent).
std::optional<MutationResult> mutate(const spec::Trace& trace,
                                     MutationKind kind,
                                     const spec::Property& property,
                                     support::Rng& rng);

/// In-place form: writes the mutant into `out`, reusing the trace buffer's
/// capacity so steady-state callers allocate nothing.  Returns false (and
/// leaves `out.trace` in an unspecified-but-valid state) when the trace
/// offers no applicable site — exactly when mutate() returns nullopt, with
/// identical Rng consumption either way.
bool mutate_into(const spec::Trace& trace, MutationKind kind,
                 const spec::Property& property, support::Rng& rng,
                 MutationResult& out);

/// Precomputed-alphabet form, for callers that already hold the property's
/// alphabet (the campaign engine reuses the compiled plan's snapshot): it
/// never allocates once warm, while the convenience overload materializes
/// a fresh NameSet per call of a kind that reads sites.  `alphabet` must
/// equal property.alphabet().  Scans the trace for its sites on every call
/// of Drop, Duplicate or SwapAdjacent.
bool mutate_into(const spec::Trace& trace, MutationKind kind,
                 const spec::Property& property,
                 const spec::NameSet& alphabet, support::Rng& rng,
                 MutationResult& out);

/// Writes into `out` (cleared first, capacity reused) the ascending indices
/// of the events of `trace` whose name is in `alphabet` — the sites that
/// Drop, Duplicate and SwapAdjacent choose among.
void mutation_sites_into(const spec::Trace& trace,
                         const spec::NameSet& alphabet,
                         std::vector<std::size_t>& out);

/// Whether `kind` picks among the alphabet sites (Drop, Duplicate,
/// SwapAdjacent).  EarlyTrigger and StallDeadline draw their positions
/// from the whole trace and never read them.
bool mutation_reads_sites(MutationKind kind);

/// Precomputed-sites form, for callers that mutate one trace many times
/// (the campaign engine lists a seed's sites once per seed task): no
/// scan and no allocation once `out` is warm.
/// Precondition, for a kind that reads sites (mutation_reads_sites):
/// `sites` is exactly the ascending indices of the events of `trace` whose
/// name is in property.alphabet() — what mutation_sites_into(trace,
/// property.alphabet(), ...) writes.  Any other list yields mutants the
/// other forms would not, or reads out of bounds.  Other kinds ignore
/// `sites`.  Same result, `out` bytes and Rng draws as the NameSet
/// overloads.
bool mutate_into(const spec::Trace& trace, MutationKind kind,
                 const spec::Property& property,
                 std::span<const std::size_t> sites, support::Rng& rng,
                 MutationResult& out);

}  // namespace loom::abv
