// Property-style sweeps: randomized NAT traffic invariants, zone-parser
// fuzzing, truncation behaviour, statistics helpers, and cross-seed
// pipeline determinism.
#include <gtest/gtest.h>

#include "atlas/scenario.h"
#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "report/stats.h"
#include "resolvers/server_app.h"
#include "resolvers/zone_parser.h"
#include "simnet/nat.h"
#include "simnet/simulator.h"

namespace dnslocate {
namespace {

netbase::IpAddress ip(const char* text) { return *netbase::IpAddress::parse(text); }

// ---------- NAT properties over randomized traffic ----------

struct EchoApp : simnet::UdpApp {
  void on_datagram(simnet::Simulator& sim, simnet::Device& self,
                   const simnet::UdpPacket& packet) override {
    simnet::UdpPacket reply;
    reply.src = packet.dst;
    reply.dst = packet.src;
    reply.sport = packet.dport;
    reply.dport = packet.sport;
    reply.payload = packet.payload;
    self.send_local(sim, reply);
  }
};

struct RecorderApp : simnet::UdpApp {
  std::vector<simnet::UdpPacket> received;
  void on_datagram(simnet::Simulator&, simnet::Device&, const simnet::UdpPacket& p) override {
    received.push_back(p);
  }
};

struct NatPropertySweep : ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NatPropertySweep, EveryFlowGetsItsOwnTransparentReply) {
  // N random flows (unique source ports, mixed destinations, half diverted
  // by DNAT). Invariants: every flow receives exactly one reply; the reply
  // source equals the address the client targeted; payloads map back to the
  // right flow.
  simnet::Simulator sim(GetParam());
  auto& client = sim.add_device<simnet::Device>("client");
  auto& router = sim.add_device<simnet::Device>("router");
  auto& real = sim.add_device<simnet::Device>("real");
  auto& alt = sim.add_device<simnet::Device>("alt");
  router.set_forwarding(true);
  auto [c_up, r_lan] = sim.connect(client, router);
  auto [r_wan, real_up] = sim.connect(router, real);
  auto [r_alt, alt_up] = sim.connect(router, alt);

  client.add_local_ip(ip("192.168.1.10"));
  client.set_default_route(c_up);
  router.add_local_ip(ip("192.168.1.1"));
  router.add_local_ip(ip("203.0.113.7"));
  router.add_route(*netbase::Prefix::parse("192.168.1.0/24"), r_lan);
  router.add_route(*netbase::Prefix::parse("66.55.44.0/24"), r_alt);
  router.set_default_route(r_wan);
  real.add_local_ip(ip("8.8.8.8"));
  real.add_local_ip(ip("9.9.9.9"));
  real.set_default_route(real_up);
  alt.add_local_ip(ip("66.55.44.5"));
  alt.set_default_route(alt_up);

  auto nat = std::make_shared<simnet::NatHook>();
  simnet::SnatRule snat;
  snat.out_port = r_wan;
  snat.to_source_v4 = ip("203.0.113.7");
  nat->add_snat_rule(snat);
  simnet::DnatRule dnat;  // divert flows to 9.9.9.9 only
  dnat.in_port = r_lan;
  dnat.match_dsts = {ip("9.9.9.9")};
  dnat.new_dst_v4 = ip("66.55.44.5");
  nat->add_dnat_rule(dnat);
  router.add_hook(nat);

  EchoApp echo;
  real.bind_udp(53, &echo);
  alt.bind_udp(53, &echo);
  RecorderApp recorder;

  simnet::Rng rng(GetParam() * 7 + 1);
  constexpr int kFlows = 120;
  std::vector<netbase::IpAddress> expected_src(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    std::uint16_t sport = static_cast<std::uint16_t>(20000 + i);
    client.bind_udp(sport, &recorder);
    bool to_quad9 = rng.bernoulli(0.5);
    simnet::UdpPacket packet;
    packet.src = ip("192.168.1.10");
    packet.dst = to_quad9 ? ip("9.9.9.9") : ip("8.8.8.8");
    expected_src[static_cast<std::size_t>(i)] = packet.dst;
    packet.sport = sport;
    packet.dport = 53;
    packet.payload = {static_cast<std::uint8_t>(i & 0xff),
                      static_cast<std::uint8_t>(i >> 8)};
    client.send_local(sim, packet);
  }
  sim.run_until_idle();

  ASSERT_EQ(recorder.received.size(), static_cast<std::size_t>(kFlows));
  std::set<std::uint16_t> seen_ports;
  for (const auto& reply : recorder.received) {
    int flow = reply.dport - 20000;
    ASSERT_GE(flow, 0);
    ASSERT_LT(flow, kFlows);
    seen_ports.insert(reply.dport);
    // Transparency: reply source is the *original* destination even for
    // diverted flows.
    EXPECT_EQ(reply.src, expected_src[static_cast<std::size_t>(flow)]);
    // Payload integrity ties the reply to its flow.
    ASSERT_EQ(reply.payload.size(), 2u);
    int echoed = reply.payload[0] | reply.payload[1] << 8;
    EXPECT_EQ(echoed, flow);
  }
  EXPECT_EQ(seen_ports.size(), static_cast<std::size_t>(kFlows));  // one reply per flow
  EXPECT_EQ(nat->conntrack_size(), static_cast<std::size_t>(kFlows));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NatPropertySweep, ::testing::Values(1, 2, 3, 4, 5));

// ---------- zone parser fuzz ----------

TEST(ZoneParserFuzz, RandomLinesNeverCrashAndErrorsAreBounded) {
  simnet::Rng rng(2021);
  const char alphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789.@$\" \t;INATXT";
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    std::size_t lines = rng.uniform(20);
    for (std::size_t l = 0; l < lines; ++l) {
      std::size_t length = rng.uniform(60);
      for (std::size_t i = 0; i < length; ++i)
        text.push_back(alphabet[rng.uniform(sizeof alphabet - 1)]);
      text.push_back('\n');
    }
    resolvers::ZoneStore store;
    auto result = resolvers::parse_master_file(text, store);
    EXPECT_LE(result.errors.size(), lines);  // at most one error per line
  }
}

// ---------- EDNS / truncation ----------

TEST(Truncation, OversizeResponseIsTruncatedTo512WithoutOpt) {
  auto name = *dnswire::DnsName::parse("big.example");
  dnswire::Message query = dnswire::make_query(1, name, dnswire::RecordType::TXT);
  EXPECT_EQ(resolvers::DnsServerApp::udp_payload_limit(query), 512u);

  dnswire::Message response = dnswire::make_response(query);
  response.answers.push_back(dnswire::make_txt(name, std::string(900, 'x')));
  ASSERT_GT(dnswire::encode_message(response).size(), 512u);
  dnswire::WireBuffer wire;
  EXPECT_TRUE(resolvers::DnsServerApp::encode_to_fit(response, 512, wire));
  EXPECT_TRUE(response.flags.tc);
  EXPECT_TRUE(response.answers.empty());
  EXPECT_LE(dnswire::encode_message(response).size(), 512u);
  EXPECT_EQ(wire, dnswire::encode_message(response));  // the truncated encoding
}

TEST(Truncation, EdnsRaisesTheLimit) {
  auto name = *dnswire::DnsName::parse("big.example");
  dnswire::Message query = dnswire::make_query(1, name, dnswire::RecordType::TXT);
  query.additionals.push_back(dnswire::ResourceRecord{
      dnswire::DnsName{}, dnswire::RecordType::OPT, dnswire::RecordClass::IN, 0,
      dnswire::OptRecord{4096, {}}});
  EXPECT_EQ(resolvers::DnsServerApp::udp_payload_limit(query), 4096u);

  dnswire::Message response = dnswire::make_response(query);
  response.answers.push_back(dnswire::make_txt(name, std::string(900, 'x')));
  dnswire::WireBuffer wire;
  EXPECT_FALSE(resolvers::DnsServerApp::encode_to_fit(response, 4096, wire));
  EXPECT_FALSE(response.flags.tc);
  EXPECT_EQ(wire, dnswire::encode_message(response));  // encoded once, as is
}

TEST(Truncation, TinyAdvertisedSizesClampTo512) {
  dnswire::Message query = dnswire::make_query(1, *dnswire::DnsName::parse("x"),
                                               dnswire::RecordType::A);
  query.additionals.push_back(dnswire::ResourceRecord{
      dnswire::DnsName{}, dnswire::RecordType::OPT, dnswire::RecordClass::IN, 0,
      dnswire::OptRecord{80, {}}});
  EXPECT_EQ(resolvers::DnsServerApp::udp_payload_limit(query), 512u);
}

// ---------- statistics ----------

TEST(Stats, WilsonIntervalBasics) {
  auto p = report::wilson_interval(220, 9650);
  EXPECT_NEAR(p.estimate, 0.0228, 1e-4);
  EXPECT_GT(p.low, 0.019);
  EXPECT_LT(p.high, 0.027);
  EXPECT_LT(p.low, p.estimate);
  EXPECT_GT(p.high, p.estimate);
}

TEST(Stats, WilsonEdgeCases) {
  auto zero = report::wilson_interval(0, 100);
  EXPECT_DOUBLE_EQ(zero.estimate, 0.0);
  EXPECT_DOUBLE_EQ(zero.low, 0.0);
  EXPECT_GT(zero.high, 0.0);
  auto all = report::wilson_interval(100, 100);
  EXPECT_DOUBLE_EQ(all.high, 1.0);
  EXPECT_LT(all.low, 1.0);
  auto empty = report::wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(empty.low, 0.0);
  EXPECT_DOUBLE_EQ(empty.high, 1.0);
}

TEST(Stats, ClearlyDifferentDetectsSeparatedProportions) {
  auto small = report::wilson_interval(10, 10000);
  auto large = report::wilson_interval(200, 10000);
  EXPECT_TRUE(report::clearly_different(small, large));
  auto similar = report::wilson_interval(195, 10000);
  EXPECT_FALSE(report::clearly_different(large, similar));
}

// ---------- cross-seed determinism ----------

struct DeterminismSweep : ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismSweep, IdenticalSeedsIdenticalVerdicts) {
  atlas::ScenarioConfig config;
  config.seed = GetParam();
  config.isp_policy.middlebox_enabled = true;
  config.cpe.kind = atlas::CpeStyle::Kind::benign_open_dnsmasq;

  auto run = [&] {
    atlas::Scenario scenario(config);
    core::LocalizationPipeline pipeline(scenario.pipeline_config());
    auto verdict = pipeline.run(scenario.transport());
    std::string summary = std::string(to_string(verdict.location));
    for (const auto& probe : verdict.detection.probes) summary += "|" + probe.display;
    return summary;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep, ::testing::Values(1, 99, 12345, 7777777));

}  // namespace
}  // namespace dnslocate
