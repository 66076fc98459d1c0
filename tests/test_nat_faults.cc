// NAT x fault-injection interaction: network-duplicated and jittered
// upstream traffic must reuse conntrack entries (not mint phantom flows),
// replies must keep landing on the right flows, and fault-injected
// duplication must never masquerade as query replication (§3.1) at the
// transport layer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "atlas/scenario.h"
#include "dnswire/debug_queries.h"
#include "resolvers/public_resolver.h"
#include "simnet/fault.h"
#include "simnet/nat.h"
#include "simnet/simulator.h"

namespace dnslocate::simnet {
namespace {

netbase::IpAddress ip(const char* text) { return *netbase::IpAddress::parse(text); }

struct EchoApp : UdpApp {
  int echoes = 0;
  void on_datagram(Simulator& sim, Device& self, const UdpPacket& packet) override {
    ++echoes;
    UdpPacket reply;
    reply.src = packet.dst;
    reply.dst = packet.src;
    reply.sport = packet.dport;
    reply.dport = packet.sport;
    reply.payload = packet.payload;
    reply.payload.push_back(0xee);
    self.send_local(sim, reply);
  }
};

struct SinkApp : UdpApp {
  std::vector<UdpPacket> received;
  void on_datagram(Simulator&, Device&, const UdpPacket& packet) override {
    received.push_back(packet);
  }
};

/// client(192.168.1.10) -- router(NAT) -- server(8.8.8.8), with the fault
/// profile applied to the router--server ("wan") link only.
struct FaultyNatWorld {
  Simulator sim{1};
  FaultPlan plan{123};
  Device& client;
  Device& router;
  Device& server;
  PortId client_up = 0, router_lan = 0, router_wan = 0;
  std::shared_ptr<NatHook> nat = std::make_shared<NatHook>();
  EchoApp server_app;
  SinkApp client_app;

  explicit FaultyNatWorld(const FaultProfile& wan_faults) :
      client(sim.add_device<Device>("client")),
      router(sim.add_device<Device>("router")),
      server(sim.add_device<Device>("server")) {
    plan.set_class_profile("wan", wan_faults);
    sim.set_fault_plan(&plan);

    router.set_forwarding(true);
    auto [c, rl] = sim.connect(client, router);
    client_up = c;
    router_lan = rl;
    LinkConfig wan_link;
    wan_link.fault_class = "wan";
    auto [rw, s] = sim.connect(router, server, wan_link);
    router_wan = rw;

    client.add_local_ip(ip("192.168.1.10"));
    client.set_default_route(client_up);
    router.add_local_ip(ip("192.168.1.1"));
    router.add_local_ip(ip("203.0.113.7"));
    router.add_route(*netbase::Prefix::parse("192.168.1.0/24"), router_lan);
    router.set_default_route(router_wan);
    server.add_local_ip(ip("8.8.8.8"));
    server.set_default_route(s);

    SnatRule snat;
    snat.out_port = router_wan;
    snat.to_source_v4 = ip("203.0.113.7");
    nat->add_snat_rule(snat);
    router.add_hook(nat);

    server.bind_udp(53, &server_app);
  }

  void send_query(std::uint16_t sport) {
    UdpPacket p;
    p.src = ip("192.168.1.10");
    p.dst = ip("8.8.8.8");
    p.sport = sport;
    p.dport = 53;
    p.payload = {static_cast<std::uint8_t>(sport & 0xff)};
    client.bind_udp(sport, &client_app);
    client.send_local(sim, p);
  }
};

TEST(NatFaults, DuplicatedPacketsReuseTheConntrackEntry) {
  FaultProfile duplicating;
  duplicating.duplicate_rate = 1.0;
  FaultyNatWorld world(duplicating);

  world.send_query(5555);
  world.sim.run_until_idle();

  // Query duplicated outbound (2 at the server), every reply duplicated
  // inbound (4 at the client) — yet the translation table holds exactly one
  // flow, and every copy was restored to the same client endpoint.
  EXPECT_EQ(world.server_app.echoes, 2);
  ASSERT_EQ(world.client_app.received.size(), 4u);
  for (const auto& reply : world.client_app.received) {
    EXPECT_EQ(reply.src, ip("8.8.8.8"));
    EXPECT_EQ(reply.dst, ip("192.168.1.10"));
    EXPECT_EQ(reply.dport, 5555);
  }
  EXPECT_EQ(world.nat->conntrack_size(), 1u);

  // The established flow keeps translating after the duplicate storm.
  world.send_query(5555);
  world.sim.run_until_idle();
  EXPECT_EQ(world.nat->conntrack_size(), 1u);
  EXPECT_EQ(world.server_app.echoes, 4);
}

TEST(NatFaults, JitteredRepliesLandOnTheRightFlows) {
  FaultProfile jittery;
  jittery.jitter_max = std::chrono::milliseconds(6);
  jittery.reorder_rate = 0.5;
  FaultyNatWorld world(jittery);

  for (std::uint16_t sport = 6000; sport < 6008; ++sport) world.send_query(sport);
  world.sim.run_until_idle();

  ASSERT_EQ(world.client_app.received.size(), 8u);
  EXPECT_EQ(world.nat->conntrack_size(), 8u);
  // However the replies were delayed or overtook each other, each one
  // reached the flow that sent the matching query: the echoed marker byte
  // agrees with the destination port.
  for (const auto& reply : world.client_app.received) {
    ASSERT_EQ(reply.payload.size(), 2u);
    EXPECT_EQ(reply.payload[0], static_cast<std::uint8_t>(reply.dport & 0xff));
    EXPECT_EQ(reply.payload[1], 0xee);
  }
}

TEST(NatFaults, LossOnTheWanLinkLeavesNoDanglingState) {
  FaultProfile always_lossy;
  always_lossy.p_good_to_bad = 1.0;
  always_lossy.p_bad_to_good = 0.0;
  always_lossy.loss_bad = 1.0;
  FaultyNatWorld world(always_lossy);

  world.send_query(7777);
  world.sim.run_until_idle();

  EXPECT_EQ(world.server_app.echoes, 0);
  EXPECT_TRUE(world.client_app.received.empty());
  // The flow was translated (conntrack entry exists for the retransmit to
  // reuse) and the loss is attributed to the fault plan, not the NAT.
  EXPECT_EQ(world.nat->conntrack_size(), 1u);
  EXPECT_EQ(world.sim.drops().fault_burst, 1u);
  EXPECT_EQ(world.sim.drops().by_hook, 0u);
}

// --- the transport must not mistake fault duplication for replication ---

TEST(NatFaults, FaultDuplicationDoesNotFabricateReplication) {
  // A clean path (no interceptor) whose access link duplicates every
  // packet: the stub sees byte-identical copies and must report a single
  // response, not a replicated query.
  atlas::ScenarioConfig config;
  config.faults.duplicate_rate = 1.0;
  config.fault_classes = {"access"};
  atlas::Scenario scenario(config);

  auto query = dnswire::make_chaos_query(21, dnswire::version_bind());
  auto result = core::query_one(scenario.transport(), 
      {ip("9.9.9.9"), netbase::kDnsPort}, query);
  ASSERT_TRUE(result.answered());
  EXPECT_FALSE(result.replicated()) << "network duplicate counted as replication";
  EXPECT_EQ(result.all_responses.size(), 1u);
}

TEST(NatFaults, GenuineReplicationSurvivesTheDuplicateFilter) {
  // An ISP middlebox that replicates queries (§3.1) produces two *different*
  // answers; the duplicate filter must keep both even while the access link
  // is also duplicating packets.
  atlas::ScenarioConfig config;
  config.isp_policy.middlebox_enabled = true;
  config.isp_policy.replicate = true;
  config.faults.duplicate_rate = 1.0;
  config.fault_classes = {"access"};
  atlas::Scenario scenario(config);

  auto query = dnswire::make_chaos_query(22, dnswire::version_bind());
  auto result = core::query_one(scenario.transport(), 
      {ip("9.9.9.9"), netbase::kDnsPort}, query);
  ASSERT_TRUE(result.answered());
  EXPECT_TRUE(result.replicated());
  EXPECT_EQ(result.all_responses.size(), 2u);
}

// --- the full trace text is pinned byte for byte ---

/// A dual-stack home whose CPE intercepts v4 (DNAT to the ISP resolver, then
/// SNAT on the way out) behind an ISP middlebox that replicates port-53 flows
/// of both families, with an access link that truncates, jitters and
/// duplicates. Every trace detail the NAT
/// and the fault plan can emit shows up in its trace.
std::string traced_world_text() {
  atlas::ScenarioConfig config;
  config.cpe.kind = atlas::CpeStyle::Kind::intercept_to_resolver;
  config.home_ipv6 = true;
  config.isp_policy.middlebox_enabled = true;
  config.isp_policy.intercept_v6 = true;
  config.isp_policy.replicate = true;
  config.faults.truncate_rate = 0.5;
  config.faults.jitter_max = std::chrono::milliseconds(2);
  config.faults.duplicate_rate = 0.5;
  config.fault_classes = {"access"};
  atlas::Scenario scenario(config);
  TraceSink sink;
  scenario.sim().set_trace(&sink);

  std::uint16_t id = 40;
  for (resolvers::PublicResolverKind kind : resolvers::all_public_resolvers()) {
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    auto query =
        dnswire::make_query(id++, spec.location_query.name, spec.location_query.type);
    for (const netbase::IpAddress& server : {spec.service_v4[0], spec.service_v6[0]})
      (void)core::query_one(scenario.transport(), {server, netbase::kDnsPort}, query);
  }
  for (const char* server : {"9.9.9.9", "240.9.9.9"}) {
    auto query = dnswire::make_chaos_query(id++, dnswire::version_bind());
    (void)core::query_one(scenario.transport(), {ip(server), netbase::kDnsPort}, query);
  }
  scenario.sim().set_trace(nullptr);

  for (TraceEvent event : {TraceEvent::dnat_rewritten, TraceEvent::snat_rewritten,
                           TraceEvent::unnat_rewritten, TraceEvent::replicated,
                           TraceEvent::fault_truncated, TraceEvent::fault_delayed,
                           TraceEvent::fault_duplicated})
    EXPECT_GT(sink.count(event), 0u) << "scenario no longer covers " << to_string(event);
  return sink.render();
}

// Regeneration (deliberate behaviour changes only):
//   DNSLOCATE_UPDATE_GOLDEN=1 ./build/tests/test_nat_faults
TEST(NatFaults, TraceTextMatchesTheRecordedGolden) {
  std::string live = traced_world_text();
  if (std::getenv("DNSLOCATE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(DNSLOCATE_GOLDEN_TRACE);
    ASSERT_TRUE(file.good()) << "cannot write " << DNSLOCATE_GOLDEN_TRACE;
    file << live;
    GTEST_SKIP() << "golden regenerated at " << DNSLOCATE_GOLDEN_TRACE;
  }
  std::ifstream file(DNSLOCATE_GOLDEN_TRACE);
  std::ostringstream golden;
  golden << file.rdbuf();
  ASSERT_FALSE(golden.str().empty()) << "missing golden file " << DNSLOCATE_GOLDEN_TRACE;
  EXPECT_EQ(live, golden.str()) << "trace text drifted from the recorded golden";
}

}  // namespace
}  // namespace dnslocate::simnet
