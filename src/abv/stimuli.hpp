//! Stimuli generation from loose-ordering patterns (the paper's §8 "further
//! work": generating random sequences from the patterns, closing the ABV
//! loop of Fig. 1).
//!
//! generate_valid() samples a trace from the language of a property:
//! fragments in order, blocks in a random order within each fragment (a
//! random non-empty subset for ∨), block lengths uniform in [u,v], trigger /
//! reset events between rounds, and optional irrelevant noise events that
//! the monitors must ignore.  Timed implications get event gaps budgeted so
//! every round meets its deadline.
//!
//! Thread-safety: generation interns lazily into the shared Alphabet —
//! parallel engines must call pre_intern_stimuli_names() serially first,
//! after which generation only reads the alphabet.
//! Determinism: a trace is a pure function of (property, rng stream,
//! options); the campaign engine regenerates a seed's trace in every shard
//! that holds its units and depends on exactly that.
#pragma once

#include "spec/ast.hpp"
#include "spec/reference.hpp"
#include "support/rng.hpp"

namespace loom::abv {

struct StimuliOptions {
  std::size_t rounds = 3;        // P<<i rounds / P=>Q rounds
  std::uint32_t noise_permille = 0;  // chance of a noise event per position
  std::size_t noise_names = 2;   // distinct irrelevant names to use
  std::uint64_t max_gap_ns = 20; // inter-event spacing (antecedents)
};

/// Interns every name generate_valid() may lazily intern (the noise pool)
/// so that later generation runs are write-free on the alphabet.  The
/// parallel campaign engine calls this once during setup and then shares
/// one alphabet across workers; keep it in lockstep with the generator's
/// naming scheme (it lives next to noise_pool() for exactly that reason).
void pre_intern_stimuli_names(spec::Alphabet& ab,
                              const StimuliOptions& options);

/// generate_valid() into `out`, replacing its content and reusing its
/// capacity: the same events and Rng draws.
void generate_valid_into(const spec::Property& p, spec::Alphabet& ab,
                         support::Rng& rng, const StimuliOptions& options,
                         spec::Trace& out);

/// Generates a trace satisfying the property.  The result is guaranteed
/// accepted by the reference semantics (asserted in tests).
spec::Trace generate_valid(const spec::Property& p, spec::Alphabet& ab,
                           support::Rng& rng, const StimuliOptions& options);

spec::Trace generate_valid(const spec::Antecedent& a, spec::Alphabet& ab,
                           support::Rng& rng, const StimuliOptions& options);

spec::Trace generate_valid(const spec::TimedImplication& t,
                           spec::Alphabet& ab, support::Rng& rng,
                           const StimuliOptions& options);

}  // namespace loom::abv
