// DNS-over-TCP tests: framing, truncation-driven fallback, error paths.
#include <gtest/gtest.h>

#include "dnswire/debug_queries.h"
#include "resolvers/resolver_behavior.h"
#include "sockets/loopback_server.h"
#include "sockets/tcp_transport.h"
#include "sockets/udp_engine.h"

namespace dnslocate::sockets {
namespace {

core::QueryOptions fast() {
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(2000);
  return options;
}

std::shared_ptr<resolvers::DnsResponder> big_txt_responder(std::size_t size) {
  struct BigTxt : resolvers::DnsResponder {
    explicit BigTxt(std::size_t n) : size(n) {}
    std::optional<dnswire::Message> respond(const dnswire::Message& query,
                                            const resolvers::QueryContext&) override {
      return dnswire::make_txt_response(query, std::string(size, 'x'));
    }
    std::size_t size;
  };
  return std::make_shared<BigTxt>(size);
}

std::shared_ptr<resolvers::ResolverBehavior> plain_resolver() {
  resolvers::ResolverConfig config;
  config.software = resolvers::unbound("1.17.0");
  config.egress_v4 = *netbase::IpAddress::parse("127.0.0.1");
  return std::make_shared<resolvers::ResolverBehavior>(config);
}

TEST(TcpTransport, RoundTripOverLoopback) {
  LoopbackDnsServer server(plain_resolver(), /*serve_tcp=*/true);
  TcpTransport tcp;
  auto query = dnswire::make_chaos_query(0x7001, dnswire::version_bind());
  auto result = core::query_one(tcp, server.endpoint(), query, fast());
  ASSERT_TRUE(result.answered());
  EXPECT_EQ(result.response->first_txt(), "unbound 1.17.0");
  EXPECT_EQ(server.tcp_queries_served(), 1u);
  EXPECT_EQ(server.queries_served(), 0u);  // never touched UDP
}

TEST(TcpTransport, LargeAnswersArriveUntruncated) {
  LoopbackDnsServer server(big_txt_responder(900), /*serve_tcp=*/true);
  TcpTransport tcp;
  auto query = dnswire::make_query(0x7002, *dnswire::DnsName::parse("big.example"),
                                   dnswire::RecordType::TXT);
  auto result = core::query_one(tcp, server.endpoint(), query, fast());
  ASSERT_TRUE(result.answered());
  EXPECT_FALSE(result.response->flags.tc);
  EXPECT_EQ(result.response->first_txt()->size(), 900u);
}

TEST(TcpTransport, TimesOutOnDeadPort) {
  TcpTransport tcp;
  auto query = dnswire::make_query(1, *dnswire::DnsName::parse("x"), dnswire::RecordType::A);
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(200);
  auto result =
      core::query_one(tcp, {*netbase::IpAddress::parse("127.0.0.1"), 9}, query, options);
  EXPECT_FALSE(result.answered());
}

TEST(FallbackTransport, RetriesOverTcpOnTruncation) {
  // The UDP path truncates the 900-byte answer to fit 512; the fallback
  // must notice TC and fetch the full answer over TCP.
  LoopbackDnsServer server(big_txt_responder(900), /*serve_tcp=*/true);
  UdpEngine udp;
  TcpTransport tcp;
  FallbackTransport fallback(udp, tcp);

  auto query = dnswire::make_query(0x7003, *dnswire::DnsName::parse("big.example"),
                                   dnswire::RecordType::TXT);
  auto result = core::query_one(fallback, server.endpoint(), query, fast());
  ASSERT_TRUE(result.answered());
  EXPECT_FALSE(result.response->flags.tc);
  EXPECT_EQ(result.response->first_txt()->size(), 900u);
  EXPECT_EQ(fallback.tcp_retries(), 1u);
  EXPECT_EQ(server.queries_served(), 1u);      // the truncated UDP attempt
  EXPECT_EQ(server.tcp_queries_served(), 1u);  // the retry
  // Telemetry counts both legs the fallback ran, and both answered.
  EXPECT_EQ(fallback.telemetry().queries, 2u);
  EXPECT_EQ(fallback.telemetry().answered, 2u);
}

TEST(FallbackTransport, SmallAnswersNeverTouchTcp) {
  LoopbackDnsServer server(plain_resolver(), /*serve_tcp=*/true);
  UdpEngine udp;
  TcpTransport tcp;
  FallbackTransport fallback(udp, tcp);
  auto query = dnswire::make_chaos_query(0x7004, dnswire::version_bind());
  auto result = core::query_one(fallback, server.endpoint(), query, fast());
  ASSERT_TRUE(result.answered());
  EXPECT_EQ(fallback.tcp_retries(), 0u);
  EXPECT_EQ(server.tcp_queries_served(), 0u);
  EXPECT_EQ(fallback.telemetry().queries, 1u);
  EXPECT_EQ(fallback.telemetry().answered, 1u);
}

TEST(FallbackTransport, KeepsTruncatedAnswerWhenTcpUnavailable) {
  // Server speaks UDP only: the fallback's TCP retry fails, and the
  // truncated UDP answer is returned rather than nothing.
  LoopbackDnsServer server(big_txt_responder(900), /*serve_tcp=*/false);
  UdpEngine udp;
  TcpTransport tcp;
  FallbackTransport fallback(udp, tcp);
  auto query = dnswire::make_query(0x7005, *dnswire::DnsName::parse("big.example"),
                                   dnswire::RecordType::TXT);
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(300);
  auto result = core::query_one(fallback, server.endpoint(), query, options);
  ASSERT_TRUE(result.answered());
  EXPECT_TRUE(result.response->flags.tc);
  EXPECT_EQ(fallback.tcp_retries(), 1u);
}

TEST(TcpTransport, SupportsBothFamilies) {
  TcpTransport tcp;
  EXPECT_TRUE(tcp.supports_family(netbase::IpFamily::v4));
  EXPECT_FALSE(tcp.supports_ttl());
}

}  // namespace
}  // namespace dnslocate::sockets
