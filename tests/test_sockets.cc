// UdpEngine tests over the in-process loopback DNS server, one query at a
// time through core::query_one: the same pipeline that runs in the
// simulator runs over real UDP sockets.
#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/mapped_transport.h"
#include "dnswire/debug_queries.h"
#include "resolvers/resolver_behavior.h"
#include "sockets/loopback_server.h"
#include "sockets/udp_engine.h"

namespace dnslocate::sockets {
namespace {

std::shared_ptr<resolvers::ResolverBehavior> test_resolver() {
  resolvers::ResolverConfig config;
  config.software = resolvers::unbound("1.17.0", "loopback-test");
  config.egress_v4 = *netbase::IpAddress::parse("127.0.0.1");
  return std::make_shared<resolvers::ResolverBehavior>(config);
}

TEST(UdpEngine, QueryRoundTripOverLoopback) {
  LoopbackDnsServer server(test_resolver());
  UdpEngine engine;

  auto query = dnswire::make_query(0x4242, *dnswire::DnsName::parse("example.com"),
                                   dnswire::RecordType::A);
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(2000);
  auto result = core::query_one(engine, server.endpoint(), query, options);

  ASSERT_TRUE(result.answered());
  EXPECT_EQ(result.response->id, 0x4242);
  EXPECT_TRUE(result.response->first_address().has_value());
  EXPECT_EQ(server.queries_served(), 1u);
  EXPECT_GT(result.rtt.count(), 0);
}

TEST(UdpEngine, ChaosQueriesWork) {
  LoopbackDnsServer server(test_resolver());
  UdpEngine engine;
  auto query = dnswire::make_chaos_query(7, dnswire::version_bind());
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(2000);
  auto result = core::query_one(engine, server.endpoint(), query, options);
  ASSERT_TRUE(result.answered());
  EXPECT_EQ(result.response->first_txt(), "unbound 1.17.0");
}

TEST(UdpEngine, TimesOutWhenNothingListens) {
  UdpEngine engine;
  // A loopback port with (almost certainly) no listener.
  netbase::Endpoint dead{*netbase::IpAddress::parse("127.0.0.1"), 1};
  auto query = dnswire::make_query(1, *dnswire::DnsName::parse("example.com"),
                                   dnswire::RecordType::A);
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(100);
  auto result = core::query_one(engine, dead, query, options);
  EXPECT_FALSE(result.answered());
  EXPECT_EQ(result.status, core::QueryResult::Status::timed_out);
}

TEST(UdpEngine, CancellationCutsRetrySleepsShort) {
  // Three attempts with 2s timeouts and a 2s backoff would take ~8s against
  // a dead endpoint; a 50ms cancellation budget must cut the poll horizon
  // and the inter-attempt backoff short, reporting an honest timeout.
  UdpEngine engine;
  netbase::Endpoint dead{*netbase::IpAddress::parse("127.0.0.1"), 1};
  auto query = dnswire::make_query(2, *dnswire::DnsName::parse("example.com"),
                                   dnswire::RecordType::A);
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(2000);
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = std::chrono::milliseconds(2000);
  options.cancel = core::CancelToken::after(std::chrono::milliseconds(50));

  auto start = std::chrono::steady_clock::now();
  auto result = core::query_one(engine, dead, query, options);
  auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_FALSE(result.answered());
  EXPECT_EQ(result.status, core::QueryResult::Status::timed_out);
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
}

TEST(UdpEngine, SupportsV4) {
  UdpEngine engine;
  EXPECT_TRUE(engine.supports_family(netbase::IpFamily::v4));
  EXPECT_TRUE(engine.supports_ttl());
}

TEST(UdpEngine, MismatchedIdIsIgnored) {
  // A responder that answers with the wrong transaction id: the engine
  // must not accept it, and the query times out.
  struct WrongId : resolvers::DnsResponder {
    std::optional<dnswire::Message> respond(const dnswire::Message& query,
                                            const resolvers::QueryContext&) override {
      auto response = dnswire::make_response(query);
      response.id = static_cast<std::uint16_t>(query.id + 1);
      return response;
    }
  };
  LoopbackDnsServer server(std::make_shared<WrongId>());
  UdpEngine engine;
  auto query = dnswire::make_query(0x1000, *dnswire::DnsName::parse("example.com"),
                                   dnswire::RecordType::A);
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(300);
  auto result = core::query_one(engine, server.endpoint(), query, options);
  EXPECT_FALSE(result.answered());
}

TEST(UdpEngine, BlockingResolverShowsErrorStatus) {
  resolvers::ResolverConfig config;
  config.software = resolvers::chaos_refuser("filter", dnswire::Rcode::NOTIMP);
  config.block_all_rcode = dnswire::Rcode::REFUSED;
  LoopbackDnsServer server(std::make_shared<resolvers::ResolverBehavior>(config));
  UdpEngine engine;
  auto query = dnswire::make_query(5, *dnswire::DnsName::parse("example.com"),
                                   dnswire::RecordType::A);
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(2000);
  auto result = core::query_one(engine, server.endpoint(), query, options);
  ASSERT_TRUE(result.answered());
  EXPECT_EQ(result.response->rcode(), dnswire::Rcode::REFUSED);
}

TEST(UdpEngine, DetectorRunsOverRealSockets) {
  // Run step 1 over real sockets, with the four public resolvers' primary
  // addresses mapped onto one loopback resolver (unmapped addresses time
  // out hermetically): every probe is sent, answered, classified and
  // rendered.
  LoopbackDnsServer server(test_resolver());
  UdpEngine engine;
  core::MappedBatchTransport mapped(engine);
  for (resolvers::PublicResolverKind kind : resolvers::all_public_resolvers())
    mapped.map_address(resolvers::PublicResolverSpec::get(kind).service_v4[0], server.endpoint());
  core::InterceptionDetector::Config config;
  config.test_v6 = false;
  config.use_secondary_addresses = false;
  config.query.timeout = std::chrono::milliseconds(2000);
  core::InterceptionDetector detector(config);
  auto report = detector.run(mapped);
  EXPECT_EQ(report.probes.size(), 4u);
  for (const auto& probe : report.probes) {
    EXPECT_FALSE(probe.display.empty());
    EXPECT_TRUE(probe.result.answered()) << probe.display;
    EXPECT_NE(probe.verdict, core::LocationVerdict::timed_out);
  }
  EXPECT_EQ(server.queries_served(), 4u);
}

}  // namespace
}  // namespace dnslocate::sockets
