// SimTransport unit tests: the synchronous client that drives the
// simulator — port allocation, timing, duplicate collection, options.
#include <gtest/gtest.h>

#include "atlas/scenario.h"
#include "dnswire/debug_queries.h"

namespace dnslocate::core {
namespace {

netbase::Endpoint quad9() {
  return {*netbase::IpAddress::parse("9.9.9.9"), netbase::kDnsPort};
}

TEST(SimTransport, MeasuresRtt) {
  atlas::ScenarioConfig config;
  atlas::Scenario scenario(config);
  auto query = dnswire::make_chaos_query(1, dnswire::version_bind());
  auto result = core::query_one(scenario.transport(), quad9(), query);
  ASSERT_TRUE(result.answered());
  // Path: host->cpe (0.3ms) ->access (2ms) ->border (2ms) ->core (8ms)
  // ->site (6ms), server delay 0.2ms, then back: ~36.7ms round trip.
  EXPECT_GT(result.rtt.count(), 30'000);
  EXPECT_LT(result.rtt.count(), 45'000);
}

TEST(SimTransport, CountsQueriesAndCyclesPorts) {
  atlas::ScenarioConfig config;
  atlas::Scenario scenario(config);
  auto& transport = scenario.transport();
  auto query = dnswire::make_chaos_query(1, dnswire::version_bind());
  for (int i = 0; i < 5; ++i) {
    query.id = static_cast<std::uint16_t>(i + 1);
    EXPECT_TRUE(core::query_one(transport, quad9(), query).answered());
  }
  EXPECT_EQ(transport.queries_sent(), 5u);
}

TEST(SimTransport, UnsupportedFamilyTimesOutInstantly) {
  atlas::ScenarioConfig config;  // no IPv6 at the home
  atlas::Scenario scenario(config);
  EXPECT_FALSE(scenario.transport().supports_family(netbase::IpFamily::v6));
  auto query = dnswire::make_chaos_query(1, dnswire::version_bind());
  netbase::Endpoint v6_server{*netbase::IpAddress::parse("2620:fe::fe"), 53};
  auto result = core::query_one(scenario.transport(), v6_server, query);
  EXPECT_FALSE(result.answered());
}

TEST(SimTransport, V6SupportFollowsHomeConfig) {
  atlas::ScenarioConfig config;
  config.home_ipv6 = true;
  atlas::Scenario scenario(config);
  EXPECT_TRUE(scenario.transport().supports_family(netbase::IpFamily::v6));
  auto query = dnswire::make_chaos_query(1, dnswire::version_bind());
  netbase::Endpoint v6_server{*netbase::IpAddress::parse("2620:fe::fe"), 53};
  auto result = core::query_one(scenario.transport(), v6_server, query);
  ASSERT_TRUE(result.answered());
  EXPECT_EQ(result.response->first_txt(), "Q9-P-9.16.15");
}

TEST(SimTransport, CollectsReplicatedDuplicates) {
  atlas::ScenarioConfig config;
  config.isp_policy.middlebox_enabled = true;
  config.isp_policy.replicate = true;
  atlas::Scenario scenario(config);
  auto query = dnswire::make_chaos_query(7, dnswire::version_bind());
  auto result = core::query_one(scenario.transport(), quad9(), query);
  ASSERT_TRUE(result.answered());
  EXPECT_TRUE(result.replicated());
  EXPECT_EQ(result.all_responses.size(), 2u);
  // The accepted (first) response is the interceptor's: the ISP resolver's
  // version string, not Quad9's.
  EXPECT_NE(result.response->first_txt(), "Q9-P-9.16.15");
  // The late duplicate is the genuine Quad9 answer.
  EXPECT_EQ(result.all_responses.back().first_txt(), "Q9-P-9.16.15");
}

TEST(SimTransport, TtlOptionLimitsReach) {
  atlas::ScenarioConfig config;
  atlas::Scenario scenario(config);
  auto query = dnswire::make_chaos_query(9, dnswire::version_bind());
  QueryOptions options;
  options.ttl = 1;
  EXPECT_FALSE(core::query_one(scenario.transport(), quad9(), query, options).answered());
  options.ttl = 64;
  query.id = 10;
  EXPECT_TRUE(core::query_one(scenario.transport(), quad9(), query, options).answered());
}

TEST(SimTransport, LateRepliesToOldQueriesAreIgnored) {
  // Issue a query that times out (bogon destination, no interceptor), then
  // a normal one; the second must complete normally with its own answer.
  atlas::ScenarioConfig config;
  atlas::Scenario scenario(config);
  auto dead = dnswire::make_chaos_query(11, dnswire::version_bind());
  netbase::Endpoint bogon{netbase::BogonCatalog::default_probe_v4(), 53};
  QueryOptions short_timeout;
  short_timeout.timeout = std::chrono::milliseconds(100);
  EXPECT_FALSE(core::query_one(scenario.transport(), bogon, dead, short_timeout).answered());

  auto live = dnswire::make_chaos_query(12, dnswire::version_bind());
  auto result = core::query_one(scenario.transport(), quad9(), live);
  ASSERT_TRUE(result.answered());
  EXPECT_EQ(result.response->id, 12);
}

}  // namespace
}  // namespace dnslocate::core
