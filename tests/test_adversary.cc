// Adversarial interceptor zoo: spoofing injectors and DPI middleboxes
// layered onto scenario worlds, and the arbitration/contested-verdict
// machinery that keeps the classifier honest under them.
#include <gtest/gtest.h>

#include <algorithm>

#include "atlas/fleet.h"
#include "atlas/measurement.h"
#include "atlas/scenario.h"
#include "core/describe.h"
#include "core/fingerprint.h"
#include "scenario_corpus.h"
#include "simnet/adversary.h"

namespace dnslocate::core {
namespace {

atlas::ScenarioConfig clean_config() { return atlas::ScenarioConfig{}; }

ProbeVerdict run_pipeline(atlas::Scenario& scenario) {
  LocalizationPipeline pipeline(scenario.pipeline_config());
  return pipeline.run(scenario.transport());
}

TEST(Spoofer, OnPathRaceContestsCleanPath) {
  atlas::ScenarioConfig config = clean_config();
  config.adversary.transit_spoofer = simnet::SpooferConfig{};
  atlas::Scenario scenario(config);
  ProbeVerdict verdict = run_pipeline(scenario);

  ASSERT_NE(scenario.spoofer(), nullptr);
  EXPECT_GT(scenario.spoofer()->queries_seen(), 0u);
  EXPECT_GT(scenario.spoofer()->injections(), 0u);

  // The forgery passes RFC 5452 (copied ID and casing) and races the
  // genuine answer, so both are collected and conflict.
  EXPECT_GT(verdict.telemetry.conflicts, 0u);
  EXPECT_TRUE(verdict.detection.any_contested());
  // The contested verdict: interception (attempt) is established, but no
  // location is fabricated from conflicting evidence.
  EXPECT_EQ(verdict.location, InterceptorLocation::contested);
  EXPECT_TRUE(verdict.intercepted());
  EXPECT_TRUE(verdict.contested());
}

TEST(Spoofer, OffPathIdGuessesAreRejectedAndCounted) {
  atlas::ScenarioConfig config = clean_config();
  simnet::SpooferConfig spoofer;
  spoofer.on_path = false;
  spoofer.id_guesses = 4;
  config.adversary.transit_spoofer = spoofer;
  atlas::Scenario scenario(config);
  ProbeVerdict verdict = run_pipeline(scenario);

  // Off-path guesses carry wrong IDs: every injection fails acceptance and
  // lands in the spoof-suspected tally; the verdict is untouched.
  EXPECT_GT(verdict.telemetry.spoof_suspected, 0u);
  EXPECT_EQ(verdict.telemetry.conflicts, 0u);
  EXPECT_EQ(verdict.location, InterceptorLocation::not_intercepted);
}

TEST(Spoofer, WrongEgressSourceIsRejectedAndCounted) {
  atlas::ScenarioConfig config = clean_config();
  simnet::SpooferConfig spoofer;
  spoofer.forge_source = true;  // on-path, but sourced from the wrong address
  config.adversary.transit_spoofer = spoofer;
  atlas::Scenario scenario(config);
  ProbeVerdict verdict = run_pipeline(scenario);

  // A forgery from an endpoint other than the queried server dies at the
  // client's conntrack-checking NAT or the transport's source check.
  EXPECT_EQ(verdict.telemetry.conflicts, 0u);
  EXPECT_EQ(verdict.location, InterceptorLocation::not_intercepted);
}

TEST(Spoofer, InjectionLeadKnobIsDeterministicAcrossLeads) {
  // Whether the forgery leads or lags the genuine answer (~12 ms from the
  // core), the duplicate window outlives both: the conflict is always
  // surfaced and the verdict is contested, byte-identically per seed.
  for (auto lead : {std::chrono::microseconds(100), std::chrono::microseconds(5000),
                    std::chrono::microseconds(20000)}) {
    atlas::ScenarioConfig config = clean_config();
    simnet::SpooferConfig spoofer;
    spoofer.injection_delay = lead;
    config.adversary.transit_spoofer = spoofer;

    atlas::Scenario first(config);
    ProbeVerdict one = run_pipeline(first);
    atlas::Scenario second(config);
    ProbeVerdict two = run_pipeline(second);

    EXPECT_EQ(one.location, InterceptorLocation::contested) << lead.count();
    EXPECT_EQ(testing_corpus::signature(one), testing_corpus::signature(two))
        << "lead " << lead.count() << "us must replay byte-identically";
  }
}

TEST(Spoofer, CpeInterceptionStaysLocalizedUnderSpoofing) {
  // Queries a CPE interceptor diverts never reach the transit core, and the
  // CPE-addressed version.bind query never leaves the home: localization of
  // a real CPE interceptor is out of the injector's reach entirely.
  atlas::ScenarioConfig config;
  config.cpe.kind = atlas::CpeStyle::Kind::xb6_buggy;
  config.adversary.transit_spoofer = simnet::SpooferConfig{};
  atlas::Scenario scenario(config);
  ProbeVerdict verdict = run_pipeline(scenario);
  EXPECT_EQ(verdict.location, InterceptorLocation::cpe);
}

TEST(Spoofer, IspInterceptionStaysLocalizedUnderSpoofing) {
  atlas::ScenarioConfig config;
  config.isp_policy.middlebox_enabled = true;
  config.adversary.transit_spoofer = simnet::SpooferConfig{};
  atlas::Scenario scenario(config);
  ProbeVerdict verdict = run_pipeline(scenario);
  EXPECT_EQ(verdict.location, InterceptorLocation::isp);
}

TEST(Spoofer, LoneForgeryAfterBurstLossIsNeverUnknownOnACleanPath) {
  // Regression: full fleet, the hostile adversary mix (burst loss, three
  // attempts, transit spoofer, omnibox DPI, fingerprinting), seed 5. Probe
  // 10295's home is clean, but a long burst on its access link eats every
  // location query except two whose only surviving answer is the forgery,
  // and the bogon stage times out. Detection alone therefore names Quad9
  // and OpenDNS intercepted without a conflict to contest it. The whoami
  // re-query of those suspects collects the forgery *and* the target's
  // own answer: that contests the claim, so the verdict must not fall to
  // `unknown` (interception at no locus on a clean path).
  atlas::FleetConfig config;
  config.seed = 5;
  config.scale = 1.0;
  config.faults = simnet::FaultProfile::burst_loss(0.05);
  config.retry.max_attempts = 3;
  config.adversary.transit_spoofer = simnet::SpooferConfig{};
  config.adversary.isp_dpi = simnet::dpi_omnibox();
  config.run_fingerprint = true;
  const auto fleet = atlas::generate_fleet(config);
  const auto spec = std::find_if(fleet.begin(), fleet.end(),
                                 [](const atlas::ProbeSpec& p) { return p.probe_id == 10295; });
  ASSERT_NE(spec, fleet.end());

  atlas::ProbeRecord record = atlas::run_probe(*spec);
  ASSERT_EQ(record.truth.expected, InterceptorLocation::not_intercepted);
  EXPECT_FALSE(record.verdict.detection.any_contested());
  EXPECT_TRUE(record.verdict.location == InterceptorLocation::not_intercepted ||
              record.verdict.location == InterceptorLocation::contested)
      << "measured " << to_string(record.verdict.location);
  ASSERT_TRUE(record.verdict.transparency.has_value());
  EXPECT_TRUE(record.verdict.transparency->any_contested());
  EXPECT_GT(record.verdict.telemetry.conflicts, 0u);
}

TEST(Dpi, FoldixIsFingerprintedByCaseMismatch) {
  atlas::ScenarioConfig config = clean_config();
  config.adversary.isp_dpi = simnet::dpi_foldix();
  config.run_fingerprint = true;
  atlas::Scenario scenario(config);
  ProbeVerdict verdict = run_pipeline(scenario);

  ASSERT_NE(scenario.isp_dpi(), nullptr);
  EXPECT_GT(scenario.isp_dpi()->queries_mutated(), 0u);
  // Case folding never alters answer content: detection is blind to it.
  EXPECT_EQ(verdict.location, InterceptorLocation::not_intercepted);
  ASSERT_TRUE(verdict.fingerprint.has_value());
  EXPECT_TRUE(verdict.fingerprint->case_folded);
  EXPECT_FALSE(verdict.fingerprint->edns_stripped);
  EXPECT_FALSE(verdict.fingerprint->tc_rewritten);
  EXPECT_EQ(verdict.fingerprint->vendor, "foldix");
}

TEST(Dpi, OptstripIsFingerprintedByMissingOptEcho) {
  atlas::ScenarioConfig config = clean_config();
  config.adversary.isp_dpi = simnet::dpi_optstrip();
  config.run_fingerprint = true;
  atlas::Scenario scenario(config);
  ProbeVerdict verdict = run_pipeline(scenario);

  EXPECT_EQ(verdict.location, InterceptorLocation::not_intercepted);
  ASSERT_TRUE(verdict.fingerprint.has_value());
  EXPECT_TRUE(verdict.fingerprint->edns_stripped);
  EXPECT_EQ(verdict.fingerprint->vendor, "optstrip");
}

TEST(Dpi, TruncorIsFingerprintedByContradictoryTc) {
  atlas::ScenarioConfig config = clean_config();
  config.adversary.isp_dpi = simnet::dpi_truncor();
  config.run_fingerprint = true;
  atlas::Scenario scenario(config);
  ProbeVerdict verdict = run_pipeline(scenario);

  ASSERT_NE(scenario.isp_dpi(), nullptr);
  EXPECT_GT(scenario.isp_dpi()->responses_mutated(), 0u);
  ASSERT_TRUE(verdict.fingerprint.has_value());
  EXPECT_TRUE(verdict.fingerprint->tc_rewritten);
  EXPECT_EQ(verdict.fingerprint->vendor, "truncor");
}

TEST(Dpi, OmniboxExhibitsAllThreeAmbiguities) {
  atlas::ScenarioConfig config = clean_config();
  config.adversary.cpe_dpi = simnet::dpi_omnibox();  // on the CPE this time
  config.run_fingerprint = true;
  atlas::Scenario scenario(config);
  ProbeVerdict verdict = run_pipeline(scenario);

  ASSERT_NE(scenario.cpe_dpi(), nullptr);
  ASSERT_TRUE(verdict.fingerprint.has_value());
  EXPECT_TRUE(verdict.fingerprint->case_folded);
  EXPECT_TRUE(verdict.fingerprint->edns_stripped);
  EXPECT_TRUE(verdict.fingerprint->tc_rewritten);
  EXPECT_EQ(verdict.fingerprint->vendor, "omnibox");
}

TEST(Dpi, CleanPathFingerprintsAsNoAmbiguity) {
  atlas::ScenarioConfig config = clean_config();
  config.run_fingerprint = true;
  atlas::Scenario scenario(config);
  ProbeVerdict verdict = run_pipeline(scenario);
  ASSERT_TRUE(verdict.fingerprint.has_value());
  EXPECT_FALSE(verdict.fingerprint->any_ambiguity());
  EXPECT_EQ(verdict.fingerprint->vendor, "");
}

// The 13-scenario corpus under every adversary personality. Three
// invariants, per the contested-verdict contract:
//  1. contested only on genuine conflict (conflicts observed in telemetry);
//  2. never silently resolved: a run that observed conflicts either keeps
//     the adversary-free location (corroborated) or degrades to contested;
//  3. never fabricated: the location is the adversary-free one or
//     contested — an adversary can remove confidence, not invent a locus.
TEST(AdversaryCorpus, ContestedOnlyOnGenuineConflictAcrossZoo) {
  struct Personality {
    const char* name;
    atlas::AdversaryConfig adversary;
  };
  std::vector<Personality> zoo;
  {
    atlas::AdversaryConfig a;
    a.transit_spoofer = simnet::SpooferConfig{};
    zoo.push_back({"onpath_spoofer", a});
  }
  {
    atlas::AdversaryConfig a;
    simnet::SpooferConfig s;
    s.on_path = false;
    a.transit_spoofer = s;
    zoo.push_back({"offpath_spoofer", a});
  }
  {
    atlas::AdversaryConfig a;
    a.isp_dpi = simnet::dpi_foldix();
    zoo.push_back({"dpi_foldix", a});
  }
  {
    atlas::AdversaryConfig a;
    a.isp_dpi = simnet::dpi_optstrip();
    zoo.push_back({"dpi_optstrip", a});
  }
  {
    atlas::AdversaryConfig a;
    a.isp_dpi = simnet::dpi_truncor();
    zoo.push_back({"dpi_truncor", a});
  }
  {
    atlas::AdversaryConfig a;
    a.cpe_dpi = simnet::dpi_omnibox();
    zoo.push_back({"dpi_omnibox_cpe", a});
  }

  for (const auto& base : testing_corpus::corpus()) {
    atlas::Scenario baseline_world(base.config);
    ProbeVerdict baseline = run_pipeline(baseline_world);

    for (const auto& personality : zoo) {
      atlas::ScenarioConfig config = base.config;
      config.adversary = personality.adversary;
      atlas::Scenario scenario(config);
      ProbeVerdict verdict = run_pipeline(scenario);
      std::string label = std::string(base.name) + " + " + personality.name;

      if (verdict.location == InterceptorLocation::contested) {
        EXPECT_GT(verdict.telemetry.conflicts, 0u)
            << label << ": contested without a genuine conflict";
      }
      if (verdict.telemetry.conflicts == 0) {
        EXPECT_EQ(verdict.location, baseline.location)
            << label << ": location moved without any conflicting answer";
      }
      EXPECT_TRUE(verdict.location == baseline.location ||
                  verdict.location == InterceptorLocation::contested)
          << label << ": adversary fabricated location "
          << to_string(verdict.location) << " (baseline "
          << to_string(baseline.location) << ")";
    }
  }
}

TEST(AdversaryCorpus, DescribeRendersContestedEvidence) {
  atlas::ScenarioConfig config = clean_config();
  config.adversary.transit_spoofer = simnet::SpooferConfig{};
  atlas::Scenario scenario(config);
  ProbeVerdict verdict = run_pipeline(scenario);
  std::string text = describe(verdict);
  EXPECT_NE(text.find("contested"), std::string::npos);
  EXPECT_NE(text.find("arbitration:"), std::string::npos);
  EXPECT_NE(text.find("conflicts="), std::string::npos);
}

}  // namespace
}  // namespace dnslocate::core
