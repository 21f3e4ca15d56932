// The benchmark's workloads and the set-up every run of one performs.
//
// A workload is a fixed campaign shape (properties, CampaignOptions); its
// inputs come only from the run's --seed: campaign i of a run uses
// first_seed = seed + i * seeds, so no two campaigns of a run share inputs
// and the same seed always replays the same campaigns.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "abv/campaign.hpp"
#include "spec/alphabet.hpp"
#include "spec/ast.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  std::vector<const char*> properties;
  loom::abv::CampaignOptions options;  // first_seed is set per campaign
  // Threads or worker processes the workload runs; a run refuses a host
  // with fewer CPUs than this rather than record a meaningless number.
  std::size_t cpus_needed;
  // Campaigns the traced run re-enacts (a fixed set, so every count it
  // reports repeats exactly for a given seed).
  std::size_t traced_campaigns;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

// Campaign i of a run with seed `seed`.
loom::abv::CampaignOptions campaign_options(const Workload& w,
                                            std::uint64_t seed, std::size_t i);

// Work units of one campaign: seeds x 6 slots x properties.
std::size_t units_per_campaign(const Workload& w);

// Parsed properties plus the alphabet they were interned into.  The plans
// borrow the properties, so a Setup never moves once built.
struct Setup {
  loom::spec::Alphabet ab;
  std::vector<loom::spec::Property> properties;
  std::vector<const loom::spec::Property*> ptrs;
  std::vector<loom::abv::PropertyPlan> plans;
  double parse_s = 0;
  double intern_s = 0;
  double compile_s = 0;
  double warmup_s = 0;  // one untimed warm-up campaign

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  double total_s() const { return parse_s + intern_s + compile_s + warmup_s; }
};

// Parses, pre-interns and compiles the workload's properties, then runs
// campaign 0 of `seed` once as a warm-up.  Throws std::runtime_error when a
// property fails to parse.
std::unique_ptr<Setup> set_up(const Workload& w, std::uint64_t seed);

}  // namespace perfbench
