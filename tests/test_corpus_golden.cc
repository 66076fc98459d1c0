// Golden pin for the 13-scenario equivalence corpus: the rendered evidence
// signatures are checked into tests/golden/scenario_signatures.txt and every
// run diffs the live signatures against that file. The file predates the
// batched engine, so this suite proves SimTransport's batch path still
// reproduces the *recorded* sequential-loop bytes: a refactor that drifts
// the evidence trail fails loudly instead of silently re-pinning at the new
// behaviour.
//
// Regeneration (deliberate behaviour changes only):
//   DNSLOCATE_UPDATE_GOLDEN=1 ./build/tests/test_corpus_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "atlas/scenario.h"
#include "scenario_corpus.h"
#include "core/pipeline.h"

namespace dnslocate {
namespace {

using atlas::Scenario;
using atlas::ScenarioConfig;
using core::LocalizationPipeline;
using testing_corpus::Case;
using testing_corpus::corpus;
using testing_corpus::signature;

core::ProbeVerdict run_scenario(const ScenarioConfig& config) {
  Scenario scenario(config);
  LocalizationPipeline pipeline(scenario.pipeline_config());
  return pipeline.run(scenario.transport());
}

/// Render the whole corpus as one diffable document. One block per case,
/// delimited so a textual diff names the scenario that drifted.
std::string render_corpus() {
  std::ostringstream out;
  for (const Case& c : corpus()) {
    out << "=== " << c.name << " ===\n";
    out << signature(run_scenario(c.config)) << "\n";
  }
  return out.str();
}

std::string read_golden() {
  std::ifstream file(DNSLOCATE_GOLDEN_SIGNATURES);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(CorpusGolden, MatchesRecordedSignatures) {
  std::string live = render_corpus();
  if (std::getenv("DNSLOCATE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(DNSLOCATE_GOLDEN_SIGNATURES);
    ASSERT_TRUE(file.good()) << "cannot write " << DNSLOCATE_GOLDEN_SIGNATURES;
    file << live;
    GTEST_SKIP() << "golden regenerated at " << DNSLOCATE_GOLDEN_SIGNATURES;
  }
  std::string golden = read_golden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << DNSLOCATE_GOLDEN_SIGNATURES
      << " — regenerate with DNSLOCATE_UPDATE_GOLDEN=1";
  EXPECT_EQ(live, golden)
      << "evidence signatures drifted from the recorded corpus; if the change "
         "is deliberate, regenerate with DNSLOCATE_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace dnslocate
