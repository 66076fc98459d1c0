#include "atlas/longitudinal.h"

namespace dnslocate::atlas {

std::vector<LongitudinalRound> run_longitudinal(Scenario& scenario, std::size_t rounds,
                                                const WorldMutator& between) {
  std::vector<LongitudinalRound> results;
  results.reserve(rounds);
  for (std::size_t round = 0; round < rounds; ++round) {
    core::LocalizationPipeline pipeline(scenario.pipeline_config());
    LongitudinalRound entry;
    entry.round = round;
    entry.verdict = pipeline.run(scenario.transport());
    entry.changed =
        !results.empty() && entry.verdict.location != results.back().verdict.location;
    results.push_back(std::move(entry));
    if (between && round + 1 < rounds) between(scenario, round);
  }
  return results;
}

std::vector<std::size_t> change_points(const std::vector<LongitudinalRound>& rounds) {
  std::vector<std::size_t> points;
  for (const auto& entry : rounds)
    if (entry.changed) points.push_back(entry.round);
  return points;
}

}  // namespace dnslocate::atlas
