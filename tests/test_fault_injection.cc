// FaultPlan unit tests: Gilbert–Elliott burst loss statistics, per-link
// stream independence, deterministic replay, and the simulator's per-cause
// drop accounting when a plan is attached.
#include <gtest/gtest.h>

#include "simnet/fault.h"
#include "simnet/simulator.h"

namespace dnslocate::simnet {
namespace {

netbase::IpAddress ip(const char* text) { return *netbase::IpAddress::parse(text); }

UdpPacket dns_response(std::size_t payload_bytes = 64) {
  UdpPacket packet;
  packet.src = ip("8.8.8.8");
  packet.dst = ip("192.0.2.10");
  packet.sport = netbase::kDnsPort;
  packet.dport = 40000;
  packet.payload.assign(payload_bytes, 0xab);
  return packet;
}

TEST(FaultProfile, BurstLossSolvesForStationaryRate) {
  auto profile = FaultProfile::burst_loss(0.05, 4.0);
  EXPECT_DOUBLE_EQ(profile.p_bad_to_good, 0.25);
  // pi_b = p_gb / (p_gb + p_bg) must equal the requested mean loss.
  double pi_b = profile.p_good_to_bad / (profile.p_good_to_bad + profile.p_bad_to_good);
  EXPECT_NEAR(pi_b, 0.05, 1e-12);
  EXPECT_FALSE(FaultProfile{}.active());
  EXPECT_TRUE(profile.active());
  EXPECT_FALSE(FaultProfile::burst_loss(0.0).active());
}

TEST(FaultProfile, EmpiricalLossAndBurstLengthMatch) {
  FaultPlan plan(77);
  plan.set_default_profile(FaultProfile::burst_loss(0.05, 4.0));
  auto packet = dns_response();
  FaultPlan::LinkState link = plan.link_state(1);

  int drops = 0, bursts = 0;
  bool in_burst = false;
  constexpr int kPackets = 50'000;
  for (int i = 0; i < kPackets; ++i) {
    auto decision = plan.decide(plan.profile_for(""), link, packet);
    if (decision.drop) {
      ++drops;
      if (!in_burst) ++bursts;
      in_burst = true;
    } else {
      in_burst = false;
    }
  }
  double rate = static_cast<double>(drops) / kPackets;
  EXPECT_NEAR(rate, 0.05, 0.01);
  // Mean burst length 1/p_bg = 4 packets (loose tolerance: bursts can abut).
  double mean_burst = static_cast<double>(drops) / bursts;
  EXPECT_GT(mean_burst, 2.5);
  EXPECT_LT(mean_burst, 6.0);
  EXPECT_EQ(plan.counters().drops(), static_cast<std::uint64_t>(drops));
}

TEST(FaultPlan, SameSeedReplaysIdentically) {
  FaultPlan a(42), b(42);
  auto profile = FaultProfile::burst_loss(0.10, 3.0);
  profile.duplicate_rate = 0.05;
  profile.jitter_max = std::chrono::milliseconds(2);
  profile.truncate_rate = 0.05;
  a.set_default_profile(profile);
  b.set_default_profile(profile);

  auto packet = dns_response();
  FaultPlan::LinkState link_a = a.link_state(9);
  FaultPlan::LinkState link_b = b.link_state(9);
  for (int i = 0; i < 2'000; ++i) {
    auto da = a.decide(a.profile_for(""), link_a, packet);
    auto db = b.decide(b.profile_for(""), link_b, packet);
    ASSERT_EQ(da.drop, db.drop) << "packet " << i;
    ASSERT_EQ(da.burst, db.burst);
    ASSERT_EQ(da.duplicate, db.duplicate);
    ASSERT_EQ(da.extra_delay, db.extra_delay);
    ASSERT_EQ(da.truncate_to, db.truncate_to);
  }
  EXPECT_EQ(a.counters().burst_drops, b.counters().burst_drops);
  EXPECT_EQ(a.counters().duplicated, b.counters().duplicated);
  EXPECT_EQ(a.counters().truncated, b.counters().truncated);
  EXPECT_EQ(a.counters().jittered, b.counters().jittered);
}

TEST(FaultPlan, LinksDrawIndependentStreams) {
  // Link 2's decisions must be the same whether or not link 1 sees traffic
  // in between — each link owns a stream seeded from (plan seed, link key).
  FaultPlan solo(7), interleaved(7);
  auto profile = FaultProfile::burst_loss(0.20, 2.0);
  solo.set_default_profile(profile);
  interleaved.set_default_profile(profile);

  auto packet = dns_response();
  FaultPlan::LinkState solo_2 = solo.link_state(2);
  FaultPlan::LinkState mixed_1 = interleaved.link_state(1);
  FaultPlan::LinkState mixed_2 = interleaved.link_state(2);
  std::vector<bool> solo_drops, mixed_drops;
  for (int i = 0; i < 1'000; ++i)
    solo_drops.push_back(solo.decide(solo.profile_for(""), solo_2, packet).drop);
  for (int i = 0; i < 1'000; ++i) {
    // extra traffic on another link
    (void)interleaved.decide(interleaved.profile_for(""), mixed_1, packet);
    mixed_drops.push_back(interleaved.decide(interleaved.profile_for(""), mixed_2, packet).drop);
    (void)interleaved.decide(interleaved.profile_for(""), mixed_1, packet);
  }
  EXPECT_EQ(solo_drops, mixed_drops);
}

TEST(FaultPlan, ClassProfilesSelectPerLink) {
  FaultPlan plan(1);
  auto lossy = FaultProfile::burst_loss(0.5, 2.0);
  plan.set_class_profile("access", lossy);

  EXPECT_DOUBLE_EQ(plan.profile_for("access").p_good_to_bad, lossy.p_good_to_bad);
  // Unknown classes (and the empty class) fall back to the default profile,
  // which injects nothing.
  EXPECT_FALSE(plan.profile_for("transit").active());
  EXPECT_FALSE(plan.profile_for("").active());

  auto packet = dns_response();
  FaultPlan::LinkState link = plan.link_state(5);
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(plan.decide(plan.profile_for("transit"), link, packet).drop);
}

TEST(FaultPlan, TruncationChopsOnlyDnsResponses) {
  FaultPlan plan(3);
  FaultProfile profile;
  profile.truncate_rate = 1.0;
  plan.set_default_profile(profile);

  auto response = dns_response(100);
  FaultPlan::LinkState link = plan.link_state(1);
  for (int i = 0; i < 50; ++i) {
    auto decision = plan.decide(plan.profile_for(""), link, response);
    ASSERT_TRUE(decision.truncate_to.has_value());
    EXPECT_GE(*decision.truncate_to, 1u);
    EXPECT_LT(*decision.truncate_to, 100u);
    EXPECT_FALSE(decision.drop);
  }

  // Client->server datagrams (sport is ephemeral) are never truncated.
  UdpPacket query = dns_response(100);
  query.sport = 40000;
  query.dport = netbase::kDnsPort;
  EXPECT_FALSE(plan.decide(plan.profile_for(""), link, query).truncate_to.has_value());
  EXPECT_EQ(plan.counters().truncated, 50u);
}

TEST(FaultPlan, JitterAndReorderExtendDelivery) {
  FaultPlan plan(5);
  FaultProfile profile;
  profile.reorder_rate = 1.0;
  profile.reorder_hold = std::chrono::milliseconds(8);
  profile.jitter_max = std::chrono::milliseconds(2);
  plan.set_default_profile(profile);

  auto packet = dns_response();
  FaultPlan::LinkState link = plan.link_state(1);
  auto decision = plan.decide(plan.profile_for(""), link, packet);
  EXPECT_FALSE(decision.drop);
  EXPECT_GE(decision.extra_delay, std::chrono::milliseconds(8));
  EXPECT_LT(decision.extra_delay, std::chrono::milliseconds(10));
  EXPECT_EQ(plan.counters().reordered, 1u);
}

/// Sink that remembers every datagram it sees.
struct SinkApp : UdpApp {
  std::vector<UdpPacket> received;
  void on_datagram(Simulator&, Device&, const UdpPacket& packet) override {
    received.push_back(packet);
  }
};

struct FaultWorld {
  Simulator sim{1};
  FaultPlan plan{99};
  Device& client;
  Device& server;
  PortId client_up = 0;
  SinkApp server_app;

  explicit FaultWorld(const FaultProfile& profile) :
      client(sim.add_device<Device>("client")), server(sim.add_device<Device>("server")) {
    plan.set_class_profile("wild", profile);
    sim.set_fault_plan(&plan);
    LinkConfig link;
    link.fault_class = "wild";
    auto [c, s] = sim.connect(client, server, link);
    client_up = c;
    client.add_local_ip(ip("192.0.2.10"));
    client.set_default_route(client_up);
    server.add_local_ip(ip("8.8.8.8"));
    server.bind_udp(53, &server_app);
  }

  void send(std::uint8_t marker) {
    UdpPacket p;
    p.src = ip("192.0.2.10");
    p.dst = ip("8.8.8.8");
    p.sport = 40000;
    p.dport = 53;
    p.payload = {marker};
    client.send_local(sim, p);
  }
};

TEST(SimulatorFaults, BurstDropsAreCountedPerCause) {
  FaultProfile always_bad;
  always_bad.p_good_to_bad = 1.0;
  always_bad.p_bad_to_good = 0.0;
  always_bad.loss_bad = 1.0;
  FaultWorld world(always_bad);

  for (int i = 0; i < 10; ++i) world.send(static_cast<std::uint8_t>(i));
  world.sim.run_until_idle();

  EXPECT_TRUE(world.server_app.received.empty());
  EXPECT_EQ(world.sim.drops().fault_burst, 10u);
  EXPECT_EQ(world.sim.drops().fault_random, 0u);
  EXPECT_EQ(world.sim.drops().total(), 10u);
  EXPECT_EQ(world.plan.counters().burst_drops, 10u);
}

TEST(SimulatorFaults, DuplicationDeliversAByteIdenticalCopy) {
  FaultProfile duplicating;
  duplicating.duplicate_rate = 1.0;
  FaultWorld world(duplicating);

  world.send(0x42);
  world.sim.run_until_idle();

  ASSERT_EQ(world.server_app.received.size(), 2u);
  EXPECT_EQ(world.server_app.received[0].payload, world.server_app.received[1].payload);
  EXPECT_EQ(world.plan.counters().duplicated, 1u);
  EXPECT_EQ(world.sim.drops().total(), 0u);
}

TEST(SimulatorFaults, InertProfileLeavesTrafficAlone) {
  FaultWorld world(FaultProfile{});
  for (int i = 0; i < 5; ++i) world.send(static_cast<std::uint8_t>(i));
  world.sim.run_until_idle();
  EXPECT_EQ(world.server_app.received.size(), 5u);
  EXPECT_EQ(world.sim.drops().total(), 0u);
}

TEST(SimulatorFaults, UnroutableTrafficCountsAsNoRoute) {
  FaultWorld world(FaultProfile{});
  UdpPacket p;
  p.src = ip("192.0.2.10");
  p.dst = ip("198.51.100.77");
  p.sport = 40000;
  p.dport = 53;
  p.payload = {1};
  world.server.send_local(world.sim, p);  // server has no route to that dst
  world.sim.run_until_idle();
  EXPECT_EQ(world.sim.drops().no_route, 1u);
}

}  // namespace
}  // namespace dnslocate::simnet
