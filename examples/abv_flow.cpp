// The full ABV loop of the paper's Fig. 1 — and its §8 "further work" —
// offline: generate random stimuli *from the property*, check them with
// both monitor families (Drct and ViaPSL), measure coverage, then inject
// mutations and watch the monitors catch them.
//
//   $ ./examples/abv_flow [seed]
#include <cstdio>
#include <cstdlib>

#include "abv/checker.hpp"
#include "abv/coverage.hpp"
#include "abv/mutate.hpp"
#include "abv/stimuli.hpp"
#include "mon/monitors.hpp"
#include "psl/clause_monitor.hpp"
#include "spec/parser.hpp"

int main(int argc, char** argv) {
  using namespace loom;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  spec::Alphabet ab;
  support::DiagnosticSink sink;
  auto property = spec::parse_property(
      "(({n1, n2}, &) < ({n3[2,8], n4}, |) < n5 << i, true)", ab, sink);
  if (!property) {
    std::fprintf(stderr, "%s\n", sink.to_string().c_str());
    return 1;
  }
  std::printf("property under test: %s\n\n",
              spec::to_string(*property, ab).c_str());

  // --- 1. stimuli generation (paper §8 future work) ---
  support::Rng rng(seed);
  abv::StimuliOptions options;
  options.rounds = 5;
  options.noise_permille = 150;  // irrelevant traffic the monitors ignore
  const spec::Trace stimuli = abv::generate_valid(*property, ab, rng, options);
  std::printf("generated %zu events (with noise), e.g.:", stimuli.size());
  for (std::size_t k = 0; k < std::min<std::size_t>(10, stimuli.size()); ++k) {
    std::printf(" %s", ab.text(stimuli[k].name).c_str());
  }
  std::printf(" ...\n");

  // --- 2. check with both monitor families + coverage ---
  mon::AntecedentMonitor drct(property->antecedent());
  abv::RecognizerCoverage recognizer_cov(drct);
  abv::AlphabetCoverage alphabet_cov(property->alphabet());

  abv::Checker checker;
  checker.add("viapsl", std::make_unique<psl::ClauseMonitor>(
                            psl::encode(*property)));
  for (const auto& ev : stimuli) {
    drct.observe(ev.name, ev.time);
    recognizer_cov.sample(drct);
    alphabet_cov.record(ev.name);
    checker.observe(ev.name, ev.time);
  }
  drct.finish(stimuli.back().time);
  checker.finish(stimuli.back().time);

  std::printf("\nvalid stimuli: drct=%s, %s\n",
              mon::to_string(drct.verdict()),
              checker.summary(ab).c_str());
  std::printf("%s\n", alphabet_cov.report(ab).c_str());
  std::printf("%s\n\n", recognizer_cov.report(ab).c_str());

  // --- 3. mutation campaign: inject violations, count detections ---
  const abv::MutationKind kinds[] = {
      abv::MutationKind::Drop, abv::MutationKind::Duplicate,
      abv::MutationKind::SwapAdjacent, abv::MutationKind::EarlyTrigger};
  for (const auto kind : kinds) {
    std::size_t tried = 0, invalid = 0, detected = 0;
    for (int round = 0; round < 40; ++round) {
      auto mutant = abv::mutate(stimuli, kind, *property, rng);
      if (!mutant) continue;
      ++tried;
      const sim::Time end = mutant->trace.back().time;
      const auto ref = spec::reference_check(*property, mutant->trace, end);
      if (!ref.rejected()) continue;  // mutation happened to stay legal
      ++invalid;
      auto monitor = mon::make_monitor(*property);
      for (const auto& ev : mutant->trace) monitor->observe(ev.name, ev.time);
      monitor->finish(end);
      if (monitor->verdict() == mon::Verdict::Violated) ++detected;
    }
    std::printf("mutation %-14s: %2zu applied, %2zu invalid, %2zu detected "
                "by the monitor\n",
                abv::to_string(kind), tried, invalid, detected);
  }
  return 0;
}
