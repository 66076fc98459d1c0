// Simulator core tests: RNG determinism, event ordering, links, device
// datapath (routing, TTL, forwarding policy, bogon drops), and tracing.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <stdexcept>
#include <utility>

#include "simnet/simulator.h"

namespace dnslocate::simnet {
namespace {

using netbase::IpAddress;
using netbase::Ipv4Address;
using netbase::Prefix;

TEST(Rng, DeterministicFromSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(7);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits, 3000, 200);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(7);
  const double weights[] = {0.0, 1.0, 3.0};
  int counts[3] = {};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[2], 3 * counts[1], 600);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(1);
  Rng child = parent.fork();
  // The child stream must not equal the parent's continuation.
  EXPECT_NE(child.next_u64(), parent.next_u64());
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule(std::chrono::milliseconds(3), [&] { order.push_back(3); });
  sim.schedule(std::chrono::milliseconds(1), [&] { order.push_back(1); });
  sim.schedule(std::chrono::milliseconds(2), [&] { order.push_back(2); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), std::chrono::milliseconds(3));
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule(std::chrono::milliseconds(5), [&order, i] { order.push_back(i); });
  sim.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingAdvancesTime) {
  Simulator sim(1);
  SimTime inner_time{};
  sim.schedule(std::chrono::milliseconds(1), [&] {
    sim.schedule(std::chrono::milliseconds(1), [&] { inner_time = sim.now(); });
  });
  sim.run_until_idle();
  EXPECT_EQ(inner_time, std::chrono::milliseconds(2));
}

TEST(Simulator, MaxEventsBoundsRunaway) {
  Simulator sim(1);
  std::function<void()> loop = [&] { sim.schedule(std::chrono::milliseconds(1), loop); };
  loop();
  std::size_t processed = sim.run_until_idle(100);
  EXPECT_EQ(processed, 100u);
}

TEST(Simulator, SameTimeEventsFromAHandlerRunAfterQueuedOnes) {
  Simulator sim(1);
  std::vector<char> order;
  sim.schedule(std::chrono::milliseconds(5), [&] {
    order.push_back('a');
    sim.schedule(SimDuration{0}, [&] { order.push_back('d'); });
  });
  sim.schedule(std::chrono::milliseconds(5), [&] { order.push_back('b'); });
  sim.schedule(std::chrono::milliseconds(5), [&] { order.push_back('c'); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd'}));
  EXPECT_EQ(sim.now(), std::chrono::milliseconds(5));
}

TEST(Simulator, ReusedEventSlotsKeepTimeThenSequenceOrder) {
  // Handlers keep scheduling while earlier events retire, so the queue
  // recycles its storage thousands of times; the run order must still be
  // exactly (time, scheduling order).
  constexpr int kEvents = 10'000;
  Simulator sim(1);
  Rng delays(123);
  int scheduled = 0;
  std::vector<std::pair<SimTime, int>> ran;
  std::function<void(int)> add = [&](int fanout) {
    for (int i = 0; i < fanout && scheduled < kEvents; ++i) {
      int id = scheduled++;
      sim.schedule(std::chrono::microseconds(delays.uniform(4) * 250), [&, id] {
        ran.emplace_back(sim.now(), id);
        add(1 + static_cast<int>(delays.uniform(2)));
      });
    }
  };
  add(64);
  sim.run_until_idle();
  ASSERT_EQ(ran.size(), static_cast<std::size_t>(kEvents));
  for (std::size_t i = 1; i < ran.size(); ++i) {
    ASSERT_LE(ran[i - 1].first, ran[i].first) << "event " << i;
    if (ran[i - 1].first == ran[i].first) {
      ASSERT_LT(ran[i - 1].second, ran[i].second) << "event " << i;
    }
  }
}

/// Counts runs and destructions of the live (not moved-from) copy.
struct Tally {
  int runs = 0;
  int destroyed = 0;
};
struct Tracked {
  Tally* tally;
  Tracked(Tally* t) : tally(t) {}  // NOLINT(google-explicit-constructor)
  Tracked(Tracked&& other) noexcept : tally(std::exchange(other.tally, nullptr)) {}
  Tracked(const Tracked&) = delete;
  ~Tracked() {
    if (tally != nullptr) ++tally->destroyed;
  }
};

TEST(Simulator, HeapPathEventRunsAndIsDestroyedOnce) {
  Tally tally;
  {
    Simulator sim(1);
    std::array<std::byte, EventFn::kInlineCapacity + 1> ballast{};
    auto big = [tracked = Tracked(&tally), ballast] { ++tracked.tally->runs; };
    static_assert(sizeof(big) > EventFn::kInlineCapacity);
    sim.schedule(std::chrono::milliseconds(1), std::move(big));
    sim.run_until_idle();
    EXPECT_EQ(tally.runs, 1);
    EXPECT_EQ(tally.destroyed, 1);
  }
  EXPECT_EQ(tally.destroyed, 1);

  // An event that never runs is destroyed once, with the simulator.
  Tally pending;
  {
    Simulator sim(1);
    std::array<std::byte, EventFn::kInlineCapacity + 1> ballast{};
    sim.schedule(std::chrono::milliseconds(1),
                 [tracked = Tracked(&pending), ballast] { ++tracked.tally->runs; });
  }
  EXPECT_EQ(pending.runs, 0);
  EXPECT_EQ(pending.destroyed, 1);
}

/// Minimal sink app recording deliveries.
struct SinkApp : UdpApp {
  std::vector<UdpPacket> received;
  void on_datagram(Simulator&, Device&, const UdpPacket& packet) override {
    received.push_back(packet);
  }
};

UdpPacket packet_to(const IpAddress& src, const IpAddress& dst, std::uint16_t dport = 53) {
  UdpPacket p;
  p.src = src;
  p.dst = dst;
  p.sport = 1234;
  p.dport = dport;
  p.payload = {1, 2, 3};
  return p;
}

struct TwoHosts {
  Simulator sim{1};
  Device& a;
  Device& b;
  PortId a_port, b_port;
  SinkApp sink;

  TwoHosts()
      : a(sim.add_device<Device>("a")), b(sim.add_device<Device>("b")) {
    auto [ap, bp] =
        sim.connect(a, b, {.latency = std::chrono::milliseconds(5), .fault_class = {}});
    a_port = ap;
    b_port = bp;
    a.add_local_ip(*netbase::IpAddress::parse("10.0.0.1"));
    b.add_local_ip(*netbase::IpAddress::parse("10.0.0.2"));
    a.set_default_route(a_port);
    b.set_default_route(b_port);
    b.bind_udp(53, &sink);
  }
};

TEST(Device, DeliversToBoundApp) {
  TwoHosts net;
  net.a.send_local(net.sim, packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                                      *netbase::IpAddress::parse("10.0.0.2")));
  net.sim.run_until_idle();
  ASSERT_EQ(net.sink.received.size(), 1u);
  EXPECT_EQ(net.sim.now(), std::chrono::milliseconds(5));  // link latency applied
}

TEST(Device, TransmitOnUnconnectedPortIsDroppedNoRoute) {
  TwoHosts net;
  TraceSink trace;
  net.sim.set_trace(&trace);
  UdpPacket p = packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                          *netbase::IpAddress::parse("10.0.0.2"));
  net.sim.transmit(net.a, net.a_port + 7, p);  // a has one port
  Device& loner = net.sim.add_device<Device>("loner");  // never connected
  net.sim.transmit(loner, 0, p);
  net.sim.run_until_idle();
  EXPECT_TRUE(net.sink.received.empty());
  EXPECT_EQ(trace.count(TraceEvent::dropped_no_route), 2u);
  EXPECT_EQ(trace.count(TraceEvent::transmitted), 0u);
}

TEST(Device, ConnectingADeviceOfAnotherSimulatorThrows) {
  // A device's ordinal indexes its own simulator's port table, so it cannot
  // join a second one.
  Simulator first(1), second(1);
  Device& a = first.add_device<Device>("a");
  Device& b = first.add_device<Device>("b");
  Device& c = second.add_device<Device>("c");
  first.connect(a, b);
  EXPECT_THROW(second.connect(c, a), std::logic_error);
}

TEST(Device, FaultProfileSetAfterConnectApplies) {
  TwoHosts net;
  FaultPlan plan(5);
  net.sim.set_fault_plan(&plan);
  auto send = [&] {
    net.a.send_local(net.sim, packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                                        *netbase::IpAddress::parse("10.0.0.2")));
    net.sim.run_until_idle();
  };
  send();  // the link's first transmit, under the inert default profile
  ASSERT_EQ(net.sink.received.size(), 1u);

  FaultProfile drop_all;
  drop_all.loss_good = 1.0;
  plan.set_default_profile(drop_all);
  send();
  EXPECT_EQ(net.sink.received.size(), 1u);
  EXPECT_EQ(net.sim.drops().fault_random, 1u);

  // A class profile added later overrides the default for links tagged
  // with that class only.
  Simulator sim(1);
  auto& a = sim.add_device<Device>("a");
  auto& b = sim.add_device<Device>("b");
  auto [a_p, b_p] = sim.connect(a, b, {.fault_class = "lan"});
  (void)b_p;
  a.add_local_ip(*netbase::IpAddress::parse("10.0.0.1"));
  b.add_local_ip(*netbase::IpAddress::parse("10.0.0.2"));
  a.set_default_route(a_p);
  SinkApp sink;
  b.bind_udp(53, &sink);
  FaultPlan lan_plan(5);
  sim.set_fault_plan(&lan_plan);
  FaultProfile duplicating;
  duplicating.duplicate_rate = 1.0;
  lan_plan.set_class_profile("lan", duplicating);
  a.send_local(sim, packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                              *netbase::IpAddress::parse("10.0.0.2")));
  sim.run_until_idle();
  EXPECT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(lan_plan.counters().duplicated, 1u);
}

TEST(Device, DropsWhenPortUnbound) {
  TwoHosts net;
  net.a.send_local(net.sim, packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                                      *netbase::IpAddress::parse("10.0.0.2"), 5353));
  TraceSink trace;
  net.sim.set_trace(&trace);
  net.sim.run_until_idle();
  EXPECT_TRUE(net.sink.received.empty());
  EXPECT_EQ(trace.count(TraceEvent::dropped_no_listener), 1u);
}

TEST(Device, HostsDoNotForward) {
  TwoHosts net;
  TraceSink trace;
  net.sim.set_trace(&trace);
  // b receives a packet addressed elsewhere; forwarding is off on hosts.
  net.a.send_local(net.sim, packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                                      *netbase::IpAddress::parse("10.0.0.99")));
  net.sim.run_until_idle();
  EXPECT_TRUE(net.sink.received.empty());
  EXPECT_EQ(trace.count(TraceEvent::dropped_no_route), 1u);
}

TEST(Device, RouterForwardsAndDecrementsTtl) {
  Simulator sim(1);
  auto& a = sim.add_device<Device>("a");
  auto& r = sim.add_device<Device>("r");
  auto& b = sim.add_device<Device>("b");
  r.set_forwarding(true);
  auto [a_r, r_a] = sim.connect(a, r);
  auto [r_b, b_r] = sim.connect(r, b);
  (void)r_a;
  a.add_local_ip(*netbase::IpAddress::parse("10.0.0.1"));
  b.add_local_ip(*netbase::IpAddress::parse("10.0.1.1"));
  a.set_default_route(a_r);
  b.set_default_route(b_r);
  r.add_route(*Prefix::parse("10.0.1.0/24"), r_b);

  SinkApp sink;
  b.bind_udp(53, &sink);
  auto p = packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                     *netbase::IpAddress::parse("10.0.1.1"));
  p.ttl = 7;
  a.send_local(sim, p);
  sim.run_until_idle();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].ttl, 6);  // one router hop
}

TEST(Device, TtlExpiryDropsPacket) {
  Simulator sim(1);
  auto& a = sim.add_device<Device>("a");
  auto& r = sim.add_device<Device>("r");
  auto& b = sim.add_device<Device>("b");
  r.set_forwarding(true);
  auto [a_r, r_a] = sim.connect(a, r);
  auto [r_b, b_r] = sim.connect(r, b);
  (void)r_a;
  a.add_local_ip(*netbase::IpAddress::parse("10.0.0.1"));
  b.add_local_ip(*netbase::IpAddress::parse("10.0.1.1"));
  a.set_default_route(a_r);
  b.set_default_route(b_r);
  r.set_default_route(r_b);

  SinkApp sink;
  b.bind_udp(53, &sink);
  TraceSink trace;
  sim.set_trace(&trace);
  auto p = packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                     *netbase::IpAddress::parse("10.0.1.1"));
  p.ttl = 1;
  a.send_local(sim, p);
  sim.run_until_idle();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(trace.count(TraceEvent::dropped_ttl), 1u);
}

TEST(Device, BogonDestinationsDieAtBorder) {
  Simulator sim(1);
  auto& a = sim.add_device<Device>("a");
  auto& border = sim.add_device<Device>("border");
  auto& b = sim.add_device<Device>("b");
  border.set_forwarding(true);
  border.set_drop_bogon_destinations(true);
  auto [a_p, border_a] = sim.connect(a, border);
  auto [border_b, b_p] = sim.connect(border, b);
  (void)border_a;
  (void)b_p;
  a.add_local_ip(*netbase::IpAddress::parse("10.0.0.1"));
  a.set_default_route(a_p);
  border.set_default_route(border_b);

  TraceSink trace;
  sim.set_trace(&trace);
  a.send_local(sim, packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                              *netbase::IpAddress::parse("240.9.9.9")));
  sim.run_until_idle();
  EXPECT_EQ(trace.count(TraceEvent::dropped_no_route), 1u);
  // A routable destination passes the same border.
  a.send_local(sim, packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                              *netbase::IpAddress::parse("8.8.8.8")));
  sim.run_until_idle();
  EXPECT_EQ(trace.count(TraceEvent::forwarded), 1u);
}

TEST(Device, LinkLossDropsDeterministically) {
  Simulator sim(77);
  auto& a = sim.add_device<Device>("a");
  auto& b = sim.add_device<Device>("b");
  auto [a_p, b_p] = sim.connect(a, b, {.latency = std::chrono::milliseconds(1),
                                       .loss_rate = 0.5,
                                       .fault_class = {}});
  (void)b_p;
  a.add_local_ip(*netbase::IpAddress::parse("10.0.0.1"));
  b.add_local_ip(*netbase::IpAddress::parse("10.0.0.2"));
  a.set_default_route(a_p);
  SinkApp sink;
  b.bind_udp(53, &sink);

  for (int i = 0; i < 200; ++i)
    a.send_local(sim, packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                                *netbase::IpAddress::parse("10.0.0.2")));
  sim.run_until_idle();
  // ~50% delivery, deterministic for the seed.
  EXPECT_GT(sink.received.size(), 60u);
  EXPECT_LT(sink.received.size(), 140u);

  Simulator sim2(77);  // identical seed & schedule -> identical outcome
  auto& a2 = sim2.add_device<Device>("a");
  auto& b2 = sim2.add_device<Device>("b");
  auto [a2_p, b2_p] = sim2.connect(a2, b2, {.latency = std::chrono::milliseconds(1),
                                            .loss_rate = 0.5,
                                            .fault_class = {}});
  (void)b2_p;
  a2.add_local_ip(*netbase::IpAddress::parse("10.0.0.1"));
  b2.add_local_ip(*netbase::IpAddress::parse("10.0.0.2"));
  a2.set_default_route(a2_p);
  SinkApp sink2;
  b2.bind_udp(53, &sink2);
  for (int i = 0; i < 200; ++i)
    a2.send_local(sim2, packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                                  *netbase::IpAddress::parse("10.0.0.2")));
  sim2.run_until_idle();
  EXPECT_EQ(sink.received.size(), sink2.received.size());
}

TEST(Device, HookCanDropPackets) {
  struct DropAll : PacketHook {
    HookVerdict prerouting(Simulator&, Device&, UdpPacket&, std::optional<PortId>) override {
      return HookVerdict::drop;
    }
  };
  TwoHosts net;
  net.b.add_hook(std::make_shared<DropAll>());
  net.a.send_local(net.sim, packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                                      *netbase::IpAddress::parse("10.0.0.2")));
  net.sim.run_until_idle();
  EXPECT_TRUE(net.sink.received.empty());
}

TEST(Trace, RecordsRenderReadably) {
  TraceSink trace;
  UdpPacket p = packet_to(*netbase::IpAddress::parse("10.0.0.1"),
                          *netbase::IpAddress::parse("10.0.0.2"));
  trace.record(std::chrono::milliseconds(2), "dev", TraceEvent::dnat_rewritten, p, "detail");
  auto rendered = trace.render();
  EXPECT_NE(rendered.find("dev"), std::string::npos);
  EXPECT_NE(rendered.find("dnat_rewritten"), std::string::npos);
  EXPECT_NE(rendered.find("10.0.0.2:53"), std::string::npos);
  EXPECT_NE(rendered.find("detail"), std::string::npos);
}

}  // namespace
}  // namespace dnslocate::simnet
