// The paper's Fig. 1 loop, written out literally: the one oracle every
// campaign configuration is diffed against (differential testing in
// McKeeman's sense — each configuration of the engine is compared with an
// obviously correct reference, never with another configuration).
//
// reference_campaign(property, ab, options) runs serially and in process.
// Per seed it generates the valid trace from Rng::stream(first_seed + s, 0).
// Per unit it builds a fresh monitor by per-unit translation
// (mon::make_monitor, mon::compile_vm or psl::encode, for the backend the
// compiled plan chose), calls observe() once per event, samples recognizer
// coverage after every event, and takes the verdict from a full walk of
// the re-planning spec::reference_check.  Each mutant is materialized with
// abv::mutate() from Rng::stream(first_seed + s, 1 + kind) and replayed in
// full.  No trace cache, checkpoint ladder, monitor pool, shard or mutant
// edit is involved, so none of the engine's shortcuts can hide in here.
//
// Only the semantic fields of the result are computed (what
// results_identical and report() read).  The threads, shard_size,
// checkpoint_stride, workers and worker fields of `options` are ignored.
#pragma once

#include <memory>
#include <optional>

#include "abv/campaign.hpp"
#include "abv/coverage.hpp"
#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "mon/bytecode.hpp"
#include "mon/monitors.hpp"
#include "mon/vm.hpp"
#include "psl/clause_monitor.hpp"
#include "psl/translate.hpp"
#include "spec/reference.hpp"

namespace loom::testing {

namespace reference_detail {

inline sim::Time end_of(const spec::Trace& t) {
  return t.empty() ? sim::Time::zero() : t.back().time;
}

// A fresh monitor of `backend`, translated from the property text's AST on
// the spot — nothing is shared with the compiled plan but the choice.
inline std::unique_ptr<mon::Monitor> translate(const spec::Property& property,
                                               mon::Backend backend,
                                               std::size_t max_clauses,
                                               const spec::Alphabet& ab) {
  switch (backend) {
    case mon::Backend::ViaPSL:
      return std::make_unique<psl::ClauseMonitor>(
          psl::encode(property, max_clauses, &ab));
    case mon::Backend::Vm:
      return std::make_unique<mon::VmMonitor>(mon::compile_vm(property));
    case mon::Backend::Drct:
    case mon::Backend::Auto:
      break;
  }
  return mon::make_monitor(property);
}

// Steps every event of `trace` through `monitor` and finishes at its last
// event; `each` runs after every observe().
template <typename Each>
void run(mon::Monitor& monitor, const spec::Trace& trace, Each each) {
  for (const spec::TimedEvent& ev : trace) {
    monitor.observe(ev.name, ev.time);
    each(ev);
  }
  monitor.finish(end_of(trace));
}

}  // namespace reference_detail

inline abv::CampaignResult reference_campaign(
    const spec::Property& property, spec::Alphabet& ab,
    const abv::CampaignOptions& options) {
  using namespace reference_detail;
  // The plan decides only which backend runs (and names it in the
  // report); every monitor below is translated afresh.
  const abv::PropertyPlan plan =
      abv::compile_property_plans({&property}, ab, options)[0];
  const mon::Backend chosen = plan.compiled.chosen();
  const bool samples_recognizer =
      property.is_antecedent() &&
      (chosen == mon::Backend::Drct || chosen == mon::Backend::Vm);

  abv::CampaignResult result;
  result.compile_stats.backend_requested = plan.compiled.requested();
  result.compile_stats.backend_chosen = chosen;
  abv::AlphabetCoverage alphabet(property.alphabet());
  std::optional<abv::RecognizerCoverage> recognizer;
  const auto fresh = [&](mon::Backend backend) {
    return translate(property, backend, plan.compiled.max_clauses(), ab);
  };

  for (std::size_t s = 0; s < options.seeds; ++s) {
    // Generate the valid stimuli.
    support::Rng valid_rng = support::Rng::stream(options.first_seed + s, 0);
    const spec::Trace valid =
        abv::generate_valid(property, ab, valid_rng, options.stimuli);
    ++result.traces;
    result.events += valid.size();
    const spec::RefResult ref =
        spec::reference_check(property, valid, end_of(valid));

    // Check them with the monitor, recording coverage after every event.
    const std::unique_ptr<mon::Monitor> monitor = fresh(chosen);
    const auto* drct =
        dynamic_cast<const mon::AntecedentMonitor*>(monitor.get());
    const auto* vm = dynamic_cast<const mon::VmMonitor*>(monitor.get());
    if (samples_recognizer && !recognizer) {
      if (vm != nullptr) {
        recognizer.emplace(*vm);
      } else {
        recognizer.emplace(*drct);
      }
    }
    run(*monitor, valid, [&](const spec::TimedEvent& ev) {
      alphabet.record(ev.name);
      if (!samples_recognizer) return;
      if (vm != nullptr) {
        recognizer->sample(*vm);
      } else {
        recognizer->sample(*drct);
      }
    });
    const bool monitor_ok = monitor->verdict() != mon::Verdict::Violated;
    if (monitor_ok && !ref.rejected()) ++result.valid_accepted;
    if (monitor_ok == ref.rejected()) ++result.oracle_disagreements;
    result.monitor_stats.merge(monitor->stats());

    if (options.check_viapsl) {
      const std::unique_ptr<mon::Monitor> viapsl = fresh(mon::Backend::ViaPSL);
      run(*viapsl, valid, [](const spec::TimedEvent&) {});
      if (!ref.rejected() && viapsl->verdict() == mon::Verdict::Violated) {
        ++result.viapsl_false_alarms;
      }
      result.monitor_stats.merge(viapsl->stats());
    }

    // Mutate them, and check that the monitor rejects every mutant the
    // reference rejects.
    for (std::size_t k = 0; k < 5; ++k) {
      support::Rng rng = support::Rng::stream(options.first_seed + s, k + 1);
      abv::MutationStats& stats = result.mutation[k];
      for (std::size_t m = 0; m < options.mutants_per_kind; ++m) {
        const std::optional<abv::MutationResult> mutant = abv::mutate(
            valid, static_cast<abv::MutationKind>(k), property, rng);
        if (!mutant) continue;
        ++stats.applied;
        if (!spec::reference_check(property, mutant->trace,
                                   end_of(mutant->trace))
                 .rejected()) {
          continue;
        }
        ++stats.invalid;
        const std::unique_ptr<mon::Monitor> mmon = fresh(chosen);
        run(*mmon, mutant->trace, [](const spec::TimedEvent&) {});
        if (mmon->verdict() == mon::Verdict::Violated) {
          ++stats.detected;
        } else {
          ++stats.missed;
        }
        result.monitor_stats.merge(mmon->stats());
      }
    }
  }

  result.alphabet_coverage = alphabet.ratio();
  result.recognizer_state_coverage =
      recognizer ? recognizer->state_ratio() : 1.0;
  return result;
}

}  // namespace loom::testing
