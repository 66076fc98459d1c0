// ICMP Time Exceeded modelling and traceroute-style path probing: the
// extension that names the intercepting hop (§6 future work).
#include <gtest/gtest.h>

#include "atlas/scenario.h"
#include "core/path_probe.h"
#include "core/ttl_probe.h"
#include "dnswire/debug_queries.h"

namespace dnslocate::core {
namespace {

netbase::Endpoint google53() {
  return {*netbase::IpAddress::parse("8.8.8.8"), netbase::kDnsPort};
}

TEST(Icmp, TtlExpiryReportsTheRouter) {
  atlas::ScenarioConfig config;
  atlas::Scenario scenario(config);
  QueryOptions options;
  options.ttl = 2;  // dies at the access router (hop 2 after the CPE)
  auto query = dnswire::make_chaos_query(1, dnswire::version_bind());
  auto result = core::query_one(scenario.transport(), google53(), query, options);
  EXPECT_FALSE(result.answered());
  ASSERT_TRUE(result.icmp_from.has_value());
  // The access router's interface address is x.y.0.1 of the customer prefix.
  auto prefix = atlas::customer_prefix_v4(config.asn);
  EXPECT_TRUE(prefix.contains(*result.icmp_from)) << result.icmp_from->to_string();
}

TEST(Icmp, RelatedErrorsTraverseTheNat) {
  // The ICMP error is addressed to the CPE's WAN address (the expired
  // packet was already masqueraded); conntrack's RELATED handling must
  // translate it back to the host. Receiving it at all proves that worked.
  atlas::ScenarioConfig config;
  atlas::Scenario scenario(config);
  QueryOptions options;
  options.ttl = 3;  // border router
  auto query = dnswire::make_chaos_query(2, dnswire::version_bind());
  auto result = core::query_one(scenario.transport(), google53(), query, options);
  EXPECT_FALSE(result.answered());
  EXPECT_TRUE(result.icmp_from.has_value());
}

TEST(Icmp, NoErrorWhenPacketIsDelivered) {
  atlas::ScenarioConfig config;
  atlas::Scenario scenario(config);
  auto query = dnswire::make_chaos_query(3, dnswire::version_bind());
  auto result = core::query_one(scenario.transport(), google53(), query);
  EXPECT_TRUE(result.answered());
  EXPECT_FALSE(result.icmp_from.has_value());
}

TEST(PathProber, CleanPathReachesTheResolverSite) {
  atlas::ScenarioConfig config;
  atlas::Scenario scenario(config);
  PathProber prober;
  auto report = prober.trace(scenario.transport(), google53());
  ASSERT_TRUE(report.responder_hop.has_value());
  EXPECT_EQ(*report.responder_hop, 5);  // cpe, access, border, core, site
  auto routers = report.routers();
  ASSERT_EQ(routers.size(), 4u);
  // Hop 4 is the transit core.
  EXPECT_EQ(routers[3].to_string(), "62.115.0.1");
}

TEST(PathProber, CpeInterceptorAnswersAtHopOne) {
  atlas::ScenarioConfig config;
  config.cpe.kind = atlas::CpeStyle::Kind::xb6_buggy;
  atlas::Scenario scenario(config);
  PathProber prober;
  auto report = prober.trace(scenario.transport(), google53());
  ASSERT_TRUE(report.responder_hop.has_value());
  EXPECT_EQ(*report.responder_hop, 1);
  EXPECT_TRUE(report.routers().empty());  // nothing expired before it
}

TEST(PathProber, IspInterceptorHopNamesTheIspRouter) {
  atlas::ScenarioConfig config;
  config.isp_policy.middlebox_enabled = true;
  atlas::Scenario scenario(config);
  PathProber prober;
  auto report = prober.trace(scenario.transport(), google53());
  ASSERT_TRUE(report.responder_hop.has_value());
  EXPECT_EQ(*report.responder_hop, 3);  // cpe, access(+DNAT), resolver
  // The hop-2 router (last before the responder) is inside the ISP.
  auto routers = report.routers();
  ASSERT_EQ(routers.size(), 2u);
  EXPECT_TRUE(atlas::customer_prefix_v4(config.asn).contains(routers[1]));
}

TEST(PathProber, InterceptorHopPrecedesTheCleanResponderHop) {
  auto hop_for = [](bool middlebox, bool external) {
    atlas::ScenarioConfig config;
    config.isp_policy.middlebox_enabled = middlebox;
    config.external_interceptor = external;
    atlas::Scenario scenario(config);
    PathProber prober;
    return prober.trace(scenario.transport(), google53()).responder_hop;
  };
  auto clean = hop_for(false, false);
  auto isp = hop_for(true, false);
  auto transit = hop_for(false, true);
  ASSERT_TRUE(clean && isp && transit);
  EXPECT_LT(*isp, *transit);
  EXPECT_LE(*transit, *clean);
}

TEST(PathProber, UnsupportedTransportYieldsEmptyReport) {
  struct NoTtl : SequentialTransport {
    QueryResult query(const netbase::Endpoint&, const dnswire::Message&,
                      const QueryOptions&) override {
      return {};
    }
    bool supports_family(netbase::IpFamily) const override { return true; }
  } transport;
  PathProber prober;
  auto report = prober.trace(transport, google53());
  EXPECT_TRUE(report.hops.empty());
  EXPECT_FALSE(report.responder_hop.has_value());
}

TEST(TtlLocalizer, AgreesWithPathProber) {
  atlas::ScenarioConfig config;
  config.isp_policy.middlebox_enabled = true;
  atlas::Scenario scenario(config);
  TtlLocalizer ttl;
  PathProber path;
  EXPECT_EQ(ttl.responder_hop(scenario.transport(), google53()),
            path.trace(scenario.transport(), google53()).responder_hop);
}

}  // namespace
}  // namespace dnslocate::core
