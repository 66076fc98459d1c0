// Full-pipeline integration over REAL sockets: loopback DNS servers play
// the four public resolvers (or an interceptor), MappedBatchTransport routes
// the well-known addresses to them, and the unmodified LocalizationPipeline
// runs end-to-end on UdpEngine through the kernel's UDP stack.
#include <gtest/gtest.h>

#include "core/describe.h"
#include "core/fingerprint.h"
#include "dnswire/debug_queries.h"
#include "core/mapped_transport.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "sockets/loopback_server.h"
#include "sockets/udp_engine.h"

namespace dnslocate {
namespace {

using resolvers::PublicResolverKind;

core::QueryOptions fast_query() {
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(400);
  return options;
}

core::PipelineConfig fast_config() {
  core::PipelineConfig config;
  config.detection.query = fast_query();
  config.detection.use_secondary_addresses = false;  // halve the socket traffic
  config.detection.test_v6 = false;
  config.cpe_check.query = fast_query();
  config.bogon.query = fast_query();
  config.bogon.test_v6 = false;
  config.transparency.query = fast_query();
  return config;
}

/// Map every public resolver's primary v4 address to `target`.
void map_all_resolvers(core::MappedBatchTransport& transport, const netbase::Endpoint& target) {
  for (PublicResolverKind kind : resolvers::all_public_resolvers()) {
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    transport.map_address(spec.service_v4[0], target);
  }
}

TEST(LoopbackPipeline, CleanWorldOverRealSockets) {
  // Four loopback servers, each running the right public-resolver
  // personality for its address.
  std::vector<std::unique_ptr<sockets::LoopbackDnsServer>> servers;
  sockets::UdpEngine udp;
  core::MappedBatchTransport transport(udp);
  for (PublicResolverKind kind : resolvers::all_public_resolvers()) {
    auto behavior = std::make_shared<resolvers::PublicResolverBehavior>(kind, 0, 0);
    servers.push_back(std::make_unique<sockets::LoopbackDnsServer>(behavior));
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    transport.map_address(spec.service_v4[0], servers.back()->endpoint());
  }

  core::LocalizationPipeline pipeline(fast_config());
  auto verdict = pipeline.run(transport);
  EXPECT_EQ(verdict.location, core::InterceptorLocation::not_intercepted)
      << core::describe(verdict);
  for (const auto& probe : verdict.detection.probes)
    EXPECT_EQ(probe.verdict, core::LocationVerdict::standard) << probe.display;
}

TEST(LoopbackPipeline, CleanPathFingerprintNamesNoVendor) {
  // Nothing sits between the prober and the resolver, so the OPT-bearing
  // probe's answer must carry the server's RFC 6891 OPT echo.
  const PublicResolverKind kind = PublicResolverKind::cloudflare;
  sockets::LoopbackDnsServer server(
      std::make_shared<resolvers::PublicResolverBehavior>(kind, 0, 0));
  sockets::UdpEngine udp;
  core::MappedBatchTransport transport(udp);
  transport.map_address(resolvers::PublicResolverSpec::get(kind).service_v4[0],
                        server.endpoint());

  core::FingerprintProber::Config config;
  config.query = fast_query();
  auto report = core::FingerprintProber(config).run(transport, kind);
  EXPECT_FALSE(report.unreachable);
  EXPECT_FALSE(report.case_folded);
  EXPECT_FALSE(report.edns_stripped);
  EXPECT_FALSE(report.tc_rewritten);
  EXPECT_EQ(report.vendor, "");
}

TEST(LoopbackPipeline, InterceptedWorldOverRealSockets) {
  // One loopback server plays the interceptor's alternate resolver; every
  // public-resolver address and the CPE's public IP land on it — the
  // socket-level equivalent of CPE DNAT. The bogon address is also mapped
  // (the interceptor answers unroutable destinations), so the §3.2 + §3.3
  // evidence comes out exactly as for a DNAT box.
  resolvers::ResolverConfig alternate;
  alternate.software = resolvers::dnsmasq("2.78");
  alternate.egress_v4 = *netbase::IpAddress::parse("127.0.0.1");
  sockets::LoopbackDnsServer interceptor(
      std::make_shared<resolvers::ResolverBehavior>(alternate));

  sockets::UdpEngine udp;
  core::MappedBatchTransport transport(udp);
  map_all_resolvers(transport, interceptor.endpoint());
  auto cpe_ip = *netbase::IpAddress::parse("203.0.113.7");
  transport.map_address(cpe_ip, interceptor.endpoint());
  transport.map_address(netbase::BogonCatalog::default_probe_v4(), interceptor.endpoint());

  core::PipelineConfig config = fast_config();
  config.cpe_public_ip = cpe_ip;
  core::LocalizationPipeline pipeline(config);
  auto verdict = pipeline.run(transport);

  EXPECT_TRUE(verdict.detection.all_four_intercepted(netbase::IpFamily::v4));
  ASSERT_TRUE(verdict.cpe_check.has_value());
  EXPECT_TRUE(verdict.cpe_check->cpe_is_interceptor);
  EXPECT_EQ(*verdict.cpe_check->cpe.txt, "dnsmasq-2.78");
  EXPECT_EQ(verdict.location, core::InterceptorLocation::cpe);
  EXPECT_GT(interceptor.queries_served(), 8u);
}

TEST(LoopbackPipeline, IspStyleInterceptionOverRealSockets) {
  // The alternate resolver answers the resolver addresses and the bogon,
  // but NOT the CPE address (port 53 closed on the home router): verdict
  // must be "within ISP".
  resolvers::ResolverConfig alternate;
  alternate.software = resolvers::unbound("1.13.1");
  alternate.egress_v4 = *netbase::IpAddress::parse("127.0.0.1");
  sockets::LoopbackDnsServer interceptor(
      std::make_shared<resolvers::ResolverBehavior>(alternate));

  sockets::UdpEngine udp;
  core::MappedBatchTransport transport(udp);
  map_all_resolvers(transport, interceptor.endpoint());
  transport.map_address(netbase::BogonCatalog::default_probe_v4(), interceptor.endpoint());

  core::PipelineConfig config = fast_config();
  config.cpe_public_ip = *netbase::IpAddress::parse("203.0.113.7");  // unmapped: timeout
  core::LocalizationPipeline pipeline(config);
  auto verdict = pipeline.run(transport);

  ASSERT_TRUE(verdict.cpe_check.has_value());
  EXPECT_FALSE(verdict.cpe_check->cpe_is_interceptor);
  EXPECT_FALSE(verdict.cpe_check->cpe.answered);
  ASSERT_TRUE(verdict.bogon.has_value());
  EXPECT_TRUE(verdict.bogon->within_isp());
  EXPECT_EQ(verdict.location, core::InterceptorLocation::isp);
}

TEST(LoopbackPipeline, RegistryMirrorsVerdictTelemetryToTheDigit) {
  // The transport_* metrics mirror the per-query telemetry; they must not
  // count a query twice because it passed through a decorator. The CPE-DNAT
  // world answers the four primary resolver addresses, the CPE and the
  // bogon; the four secondary addresses stay unmapped and time out
  // hermetically inside MappedBatchTransport.
  resolvers::ResolverConfig alternate;
  alternate.software = resolvers::dnsmasq("2.78");
  alternate.egress_v4 = *netbase::IpAddress::parse("127.0.0.1");
  sockets::LoopbackDnsServer interceptor(
      std::make_shared<resolvers::ResolverBehavior>(alternate));
  sockets::UdpEngine udp;
  core::MappedBatchTransport transport(udp);
  map_all_resolvers(transport, interceptor.endpoint());
  auto cpe_ip = *netbase::IpAddress::parse("203.0.113.7");
  transport.map_address(cpe_ip, interceptor.endpoint());
  transport.map_address(netbase::BogonCatalog::default_probe_v4(), interceptor.endpoint());

  core::PipelineConfig config = fast_config();
  config.detection.use_secondary_addresses = true;
  config.cpe_public_ip = cpe_ip;
  core::LocalizationPipeline pipeline(config);

  obs::registry().reset();
  obs::Config metrics;
  metrics.metrics = true;
  obs::enable(metrics);
  auto verdict = pipeline.run(transport);
  auto snapshot = obs::registry().snapshot();
  obs::disable();
  obs::registry().reset();

  ASSERT_EQ(verdict.location, core::InterceptorLocation::cpe) << core::describe(verdict);
  const core::TransportTelemetry& t = verdict.telemetry;
  EXPECT_GT(t.answered, 0u);
  EXPECT_GT(t.queries, t.answered);  // the unmapped secondaries timed out
  const std::map<std::string, std::uint64_t> expected = {
      {"transport_queries_total", t.queries},
      {"transport_attempts_total", t.attempts},
      {"transport_retries_total", t.retries},
      {"transport_timeouts_total", t.timeouts},
      {"transport_answered_total", t.answered},
      {"transport_spoof_suspected_total", t.spoof_suspected},
      {"transport_malformed_total", t.malformed},
      {"transport_conflicts_total", t.conflicts},
      {"transport_case_mismatches_total", t.case_mismatches},
      {"transport_late_duplicates_total", t.late_duplicates},
  };
  std::map<std::string, std::uint64_t> mirrored;
  for (const auto& [name, value] : snapshot.counters)
    if (name.rfind("transport_", 0) == 0) mirrored[name] = value;
  for (const auto& [name, value] : expected)
    EXPECT_EQ(mirrored[name], value) << name;
  for (const auto& [name, value] : mirrored) {
    if (expected.count(name) == 0) {
      EXPECT_EQ(value, 0u) << name << " has no telemetry twin";
    }
  }
}

TEST(LoopbackPipeline, HermeticPolicySilencesUnmapped) {
  sockets::UdpEngine udp;
  core::MappedBatchTransport transport(udp);  // nothing mapped, timeout policy
  auto query = dnswire::make_query(1, *dnswire::DnsName::parse("example.com"),
                                   dnswire::RecordType::A);
  auto result = core::query_one(transport, {*netbase::IpAddress::parse("8.8.8.8"), 53}, query,
                                fast_query());
  EXPECT_FALSE(result.answered());
}

TEST(LoopbackPipeline, ExactMappingBeatsAddressMapping) {
  resolvers::ResolverConfig config_a;
  config_a.software = resolvers::custom_string("server-a");
  sockets::LoopbackDnsServer server_a(
      std::make_shared<resolvers::ResolverBehavior>(config_a));
  resolvers::ResolverConfig config_b;
  config_b.software = resolvers::custom_string("server-b");
  sockets::LoopbackDnsServer server_b(
      std::make_shared<resolvers::ResolverBehavior>(config_b));

  sockets::UdpEngine udp;
  core::MappedBatchTransport transport(udp);
  auto addr = *netbase::IpAddress::parse("9.9.9.9");
  transport.map_address(addr, server_a.endpoint());
  transport.map(netbase::Endpoint{addr, 5353}, server_b.endpoint());

  auto query = dnswire::make_chaos_query(1, dnswire::version_bind());
  auto via_53 = core::query_one(transport, {addr, 53}, query, fast_query());
  auto via_5353 = core::query_one(transport, {addr, 5353}, query, fast_query());
  ASSERT_TRUE(via_53.answered());
  ASSERT_TRUE(via_5353.answered());
  EXPECT_EQ(via_53.response->first_txt(), "server-a");
  EXPECT_EQ(via_5353.response->first_txt(), "server-b");
}

}  // namespace
}  // namespace dnslocate
