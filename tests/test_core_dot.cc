// DoT modelling tests: certificate semantics of the strict/opportunistic
// profiles under DNAT diversion, blocking middleboxes, and the prober's
// cross-channel findings.
#include <gtest/gtest.h>

#include "atlas/scenario.h"
#include "core/dot_probe.h"
#include "dnswire/debug_queries.h"

namespace dnslocate::core {
namespace {

using simnet::Channel;

QueryResult dot_query(atlas::Scenario& scenario, Channel channel,
                      const netbase::IpAddress& server) {
  QueryOptions options;
  options.channel = channel;
  std::uint16_t port = channel == Channel::udp ? netbase::kDnsPort : netbase::kDotPort;
  auto query = dnswire::make_chaos_query(0x77, dnswire::version_bind());
  return core::query_one(scenario.transport(), {server, port}, query, options);
}

netbase::IpAddress quad9() { return *netbase::IpAddress::parse("9.9.9.9"); }

TEST(Dot, CleanPathAnswersAllChannels) {
  atlas::ScenarioConfig config;
  atlas::Scenario scenario(config);
  for (Channel channel : {Channel::udp, Channel::dot_strict, Channel::dot_opportunistic}) {
    auto result = dot_query(scenario, channel, quad9());
    ASSERT_TRUE(result.answered()) << to_string(channel);
    EXPECT_EQ(result.response->first_txt(), "Q9-P-9.16.15") << to_string(channel);
  }
}

TEST(Dot, StrictProfileFailsClosedUnderDiversion) {
  atlas::ScenarioConfig config;
  config.isp_policy.middlebox_enabled = true;
  config.isp_policy.dot_action = isp::DotAction::divert;
  atlas::Scenario scenario(config);

  // Strict: the diverted handshake cannot validate -> silence.
  EXPECT_FALSE(dot_query(scenario, Channel::dot_strict, quad9()).answered());
  EXPECT_GT(scenario.isp_handles().resolver_app->tls_rejected(), 0u);

  // Opportunistic: hijacked; the ISP resolver's version string comes back
  // "from" Quad9.
  auto result = dot_query(scenario, Channel::dot_opportunistic, quad9());
  ASSERT_TRUE(result.answered());
  EXPECT_NE(result.response->first_txt(), "Q9-P-9.16.15");
}

TEST(Dot, Port53OnlyInterceptorLeavesDotAlone) {
  atlas::ScenarioConfig config;
  config.isp_policy.middlebox_enabled = true;  // dot_action defaults to pass
  atlas::Scenario scenario(config);
  for (Channel channel : {Channel::dot_strict, Channel::dot_opportunistic}) {
    auto result = dot_query(scenario, channel, quad9());
    ASSERT_TRUE(result.answered()) << to_string(channel);
    EXPECT_EQ(result.response->first_txt(), "Q9-P-9.16.15");
  }
  // ...while UDP/53 is still intercepted.
  auto udp = dot_query(scenario, Channel::udp, quad9());
  ASSERT_TRUE(udp.answered());
  EXPECT_NE(udp.response->first_txt(), "Q9-P-9.16.15");
}

TEST(Dot, BlockingMiddleboxSilencesBothProfiles) {
  atlas::ScenarioConfig config;
  config.isp_policy.middlebox_enabled = true;
  config.isp_policy.dot_action = isp::DotAction::block;
  atlas::Scenario scenario(config);
  EXPECT_FALSE(dot_query(scenario, Channel::dot_strict, quad9()).answered());
  EXPECT_FALSE(dot_query(scenario, Channel::dot_opportunistic, quad9()).answered());
  EXPECT_TRUE(dot_query(scenario, Channel::udp, quad9()).answered());
}

TEST(Dot, InterceptingCpeCanGrabOpportunisticDot) {
  atlas::ScenarioConfig config;
  config.cpe.kind = atlas::CpeStyle::Kind::intercept_dnsmasq;
  atlas::Scenario scenario(config);
  // Patch: rebuild with DoT interception via a raw CPE config is not exposed
  // through CpeStyle, so exercise the mechanism at the ISP level instead and
  // via cpe::CpeConfig in test_cpe_isp. Here: UDP intercepted, DoT escapes
  // (the CPE rule matches port 53 only).
  auto udp = dot_query(scenario, Channel::udp, quad9());
  ASSERT_TRUE(udp.answered());
  EXPECT_EQ(udp.response->first_txt(), "dnsmasq-2.85");
  auto strict = dot_query(scenario, Channel::dot_strict, quad9());
  ASSERT_TRUE(strict.answered());
  EXPECT_EQ(strict.response->first_txt(), "Q9-P-9.16.15");
}

TEST(DotProber, FindingsPerDeployment) {
  struct Case {
    isp::DotAction action;
    DotFinding expected;
  };
  for (const Case& c : {Case{isp::DotAction::pass, DotFinding::dot_escapes},
                        Case{isp::DotAction::divert, DotFinding::opportunistic_hijacked},
                        Case{isp::DotAction::block, DotFinding::dot_blocked}}) {
    atlas::ScenarioConfig config;
    config.isp_policy.middlebox_enabled = true;
    config.isp_policy.dot_action = c.action;
    atlas::Scenario scenario(config);
    DotProber prober;
    auto report = prober.run(scenario.transport());
    for (const auto& [kind, resolver_report] : report.per_resolver)
      EXPECT_EQ(resolver_report.finding, c.expected)
          << to_string(kind) << " under action " << static_cast<int>(c.action);
  }
}

TEST(DotProber, CleanNetworkIsNotIntercepted) {
  atlas::ScenarioConfig config;
  atlas::Scenario scenario(config);
  DotProber prober;
  auto report = prober.run(scenario.transport());
  for (const auto& [kind, resolver_report] : report.per_resolver)
    EXPECT_EQ(resolver_report.finding, DotFinding::not_intercepted) << to_string(kind);
}

TEST(DotProber, ClassifierTruthTable) {
  auto make = [](LocationVerdict udp, LocationVerdict strict, LocationVerdict opp) {
    DotResolverReport report;
    report.channels[Channel::udp] = {udp, ""};
    report.channels[Channel::dot_strict] = {strict, ""};
    report.channels[Channel::dot_opportunistic] = {opp, ""};
    return report;
  };
  using V = LocationVerdict;
  EXPECT_EQ(DotProber::classify(make(V::standard, V::standard, V::standard)),
            DotFinding::not_intercepted);
  EXPECT_EQ(DotProber::classify(make(V::nonstandard, V::timed_out, V::nonstandard)),
            DotFinding::opportunistic_hijacked);
  EXPECT_EQ(DotProber::classify(make(V::error_status, V::timed_out, V::timed_out)),
            DotFinding::dot_blocked);
  EXPECT_EQ(DotProber::classify(make(V::nonstandard, V::standard, V::standard)),
            DotFinding::dot_escapes);
  EXPECT_EQ(DotProber::classify(make(V::timed_out, V::timed_out, V::timed_out)),
            DotFinding::inconsistent);
}

}  // namespace
}  // namespace dnslocate::core
