// Adversarial interceptor zoo: spoofing injectors and DPI middleboxes
// layered onto scenario worlds, and the arbitration/contested-verdict
// machinery that keeps the classifier honest under them.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "atlas/fleet.h"
#include "atlas/measurement.h"
#include "atlas/scenario.h"
#include "core/describe.h"
#include "core/fingerprint.h"
#include "scenario_corpus.h"
#include "bitflip.h"
#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "dnswire/view.h"
#include "simnet/adversary.h"
#include "simnet/simulator.h"

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

// --- the TC rewrite edits bytes in place ----------------------------------
// DpiHook sets TC straight in the header of any response whose structure
// walks. Before, it decoded the response, set TC and re-encoded it; these
// tests pin that the in-place result decodes to that same Message, over
// the wire corpus (each seed plus its bit-flip neighbourhood) and over every
// response the truncor and omnibox scenarios put through the hook.

/// Check one in-place rewrite of `before` into `after`. Returns whether
/// `before` is canonical encoder output, where the old re-encoding form is
/// compared too.
bool expect_tc_edit_matches_reencode(std::span<const std::uint8_t> before,
                                     std::span<const std::uint8_t> after,
                                     const std::string& label) {
  // In place: at most the TC bit changes, and only on a response that walks.
  std::vector<std::uint8_t> expected_bytes(before.begin(), before.end());
  auto view = dnswire::decode_view(before);
  if (view && view->is_response()) expected_bytes[2] |= 0x02;
  EXPECT_TRUE(std::equal(after.begin(), after.end(), expected_bytes.begin(),
                         expected_bytes.end()))
      << label;

  // Decode, set TC: the Message the rewrite means. A response that walks but
  // fails typed RDATA now gets TC where the old form failed open; nothing
  // the simulator emits has that shape.
  auto expected = dnswire::decode_message(before);
  auto decoded = dnswire::decode_message(after);
  EXPECT_EQ(decoded.has_value(), expected.has_value()) << label;
  if (!expected || !decoded) return false;
  if (expected->is_response()) expected->flags.tc = true;
  EXPECT_EQ(*decoded, *expected) << label;

  // ... then encode, as the old form did. Re-encoding compresses names
  // case-insensitively, so it only reproduces canonical encoder output
  // (everything the simulator emits); the in-place edit keeps every byte.
  dnswire::WireBuffer canonical = dnswire::encode_message(*dnswire::decode_message(before));
  if (!std::equal(before.begin(), before.end(), canonical.begin(), canonical.end()))
    return false;
  auto reencoded = dnswire::decode_message(dnswire::encode_message(*expected));
  EXPECT_TRUE(reencoded.has_value() && *reencoded == *decoded) << label;
  return true;
}

TEST(Dpi, InPlaceTcMatchesReencodeOverWireCorpus) {
  simnet::Simulator sim;
  simnet::Device& device = sim.add_device<simnet::Device>("dpi");
  simnet::DpiHook hook(simnet::dpi_truncor());
  std::vector<std::filesystem::path> seeds;
  for (const auto& entry : std::filesystem::directory_iterator(DNSLOCATE_WIRE_CORPUS))
    seeds.push_back(entry.path());
  std::sort(seeds.begin(), seeds.end());
  ASSERT_FALSE(seeds.empty());

  std::size_t canonical_inputs = 0;
  for (const auto& path : seeds) {
    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> seed{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
    for (std::uint64_t round = 0; round <= 256 && !seed.empty(); ++round) {
      std::vector<std::uint8_t> before =
          round == 0 ? seed : fuzzing::bitflip_mutant(seed, round - 1);
      simnet::UdpPacket packet;
      packet.sport = netbase::kDnsPort;
      packet.dport = 40000;
      packet.payload.assign(before.begin(), before.end());
      hook.prerouting(sim, device, packet, std::nullopt);
      if (expect_tc_edit_matches_reencode(
              before, packet.payload,
              path.filename().string() + " round " + std::to_string(round)))
        ++canonical_inputs;
    }
  }
  EXPECT_GT(canonical_inputs, 0u);
  EXPECT_GT(hook.responses_mutated(), 0u);
}

/// Runs a real DpiHook and checks every response it handles against the
/// re-encoding form.
class TcDifferentialHook : public simnet::PacketHook {
 public:
  explicit TcDifferentialHook(simnet::DpiPersonality personality)
      : dpi_(std::move(personality)) {}

  simnet::HookVerdict prerouting(simnet::Simulator& sim, simnet::Device& device,
                                 simnet::UdpPacket& packet,
                                 std::optional<simnet::PortId> in_port) override {
    bool response = packet.kind == simnet::PacketKind::udp &&
                    packet.channel == simnet::Channel::udp &&
                    packet.sport == netbase::kDnsPort;
    std::vector<std::uint8_t> before;
    if (response) before.assign(packet.payload.begin(), packet.payload.end());
    simnet::HookVerdict verdict = dpi_.prerouting(sim, device, packet, in_port);
    if (response) {
      EXPECT_TRUE(expect_tc_edit_matches_reencode(before, packet.payload,
                                                  "response " + std::to_string(compared_)))
          << "the simulator emitted a non-canonical response";
      ++compared_;
    }
    return verdict;
  }

  [[nodiscard]] const simnet::DpiHook& dpi() const { return dpi_; }
  [[nodiscard]] std::size_t compared() const { return compared_; }

 private:
  simnet::DpiHook dpi_;
  std::size_t compared_ = 0;
};

TEST(Dpi, InPlaceTcMatchesReencodeInTruncorAndOmniboxScenarios) {
  for (bool on_cpe : {false, true}) {
    atlas::ScenarioConfig config = clean_config();
    config.run_fingerprint = true;
    atlas::Scenario scenario(config);
    auto hook = std::make_shared<TcDifferentialHook>(on_cpe ? simnet::dpi_omnibox()
                                                            : simnet::dpi_truncor());
    if (on_cpe)
      scenario.cpe_handles().device->add_hook(hook);
    else
      scenario.isp_handles().access->add_hook(hook);
    ProbeVerdict verdict = run_pipeline(scenario);

    EXPECT_GT(hook->compared(), 0u) << (on_cpe ? "omnibox" : "truncor");
    EXPECT_GT(hook->dpi().responses_mutated(), 0u) << (on_cpe ? "omnibox" : "truncor");
    ASSERT_TRUE(verdict.fingerprint.has_value());
    EXPECT_TRUE(verdict.fingerprint->tc_rewritten);
  }
}

}  // namespace
}  // namespace dnslocate::core
