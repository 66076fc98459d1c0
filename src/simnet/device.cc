#include "simnet/device.h"

#include "simnet/simulator.h"

namespace dnslocate::simnet {

Device::Device(std::string name) : name_(std::move(name)) {}

void Device::add_local_ip(const netbase::IpAddress& addr) {
  if (!has_local_ip(addr)) local_ips_.push_back(addr);
}

bool Device::has_local_ip(const netbase::IpAddress& addr) const {
  for (const auto& ip : local_ips_)
    if (ip == addr) return true;
  return false;
}

std::optional<netbase::IpAddress> Device::local_ip(netbase::IpFamily family) const {
  for (const auto& ip : local_ips_)
    if (ip.family() == family) return ip;
  return std::nullopt;
}

void Device::bind_udp(std::uint16_t port, UdpApp* app) {
  for (auto& [bound, bound_app] : udp_bindings_) {
    if (bound == port) {
      bound_app = app;
      return;
    }
  }
  udp_bindings_.emplace_back(port, app);
}

void Device::unbind_udp(std::uint16_t port) {
  std::erase_if(udp_bindings_, [port](const auto& binding) { return binding.first == port; });
}

bool Device::is_udp_bound(std::uint16_t port) const { return bound_app(port) != nullptr; }

UdpApp* Device::bound_app(std::uint16_t port) const {
  for (const auto& [bound, app] : udp_bindings_)
    if (bound == port) return app;
  return nullptr;
}

void Device::add_route(const netbase::Prefix& prefix, PortId out_port) {
  routes_.insert(prefix, out_port);
}

void Device::set_default_route(PortId out_port) {
  add_route(netbase::Prefix(netbase::IpAddress(netbase::Ipv4Address{}), 0), out_port);
  add_route(netbase::Prefix(netbase::IpAddress(netbase::Ipv6Address{}), 0), out_port);
}

std::optional<PortId> Device::route_for(const netbase::IpAddress& dst) const {
  const PortId* port = routes_.lookup(dst);
  return port ? std::optional<PortId>(*port) : std::nullopt;
}

void Device::add_hook(std::shared_ptr<PacketHook> hook) { hooks_.push_back(std::move(hook)); }

bool Device::run_prerouting(Simulator& sim, UdpPacket& packet, std::optional<PortId> in_port) {
  for (const auto& hook : hooks_) {
    if (hook->prerouting(sim, *this, packet, in_port) == HookVerdict::drop) {
      sim.trace_event(*this, TraceEvent::dropped_by_hook, packet, "prerouting");
      return false;
    }
  }
  return true;
}

bool Device::run_postrouting(Simulator& sim, UdpPacket& packet, PortId out_port) {
  for (const auto& hook : hooks_) {
    if (hook->postrouting(sim, *this, packet, out_port) == HookVerdict::drop) {
      sim.trace_event(*this, TraceEvent::dropped_by_hook, packet, "postrouting");
      return false;
    }
  }
  return true;
}

void Device::receive(Simulator& sim, UdpPacket packet, PortId in_port) {
  ++counters_.received;
  sim.trace_event(*this, TraceEvent::received, packet);
  if (!run_prerouting(sim, packet, in_port)) {
    ++counters_.dropped;
    ++sim.drops().by_hook;
    return;
  }
  deliver_or_forward(sim, std::move(packet));
}

void Device::deliver_or_forward(Simulator& sim, UdpPacket&& packet) {
  if (has_local_ip(packet.dst)) {
    UdpApp* app = bound_app(packet.dport);
    if (app == nullptr) {
      ++counters_.dropped;
      ++sim.drops().no_listener;
      sim.trace_event(*this, TraceEvent::dropped_no_listener, packet);
      return;
    }
    ++counters_.delivered;
    sim.trace_event(*this, TraceEvent::delivered, packet);
    app->on_datagram(sim, *this, packet);
    return;
  }
  if (!forwarding_) {
    ++counters_.dropped;
    ++sim.drops().no_route;
    sim.trace_event(*this, TraceEvent::dropped_no_route, packet, "forwarding disabled");
    return;
  }
  forward(sim, std::move(packet));
}

void Device::forward(Simulator& sim, UdpPacket&& packet) {
  if (packet.ttl <= 1) {
    ++counters_.dropped;
    ++sim.drops().ttl_expired;
    sim.trace_event(*this, TraceEvent::dropped_ttl, packet);
    send_ttl_exceeded(sim, packet);
    return;
  }
  --packet.ttl;
  if (drop_bogons_ && packet.dst.is_bogon()) {
    ++counters_.dropped;
    ++sim.drops().no_route;
    sim.trace_event(*this, TraceEvent::dropped_no_route, packet, "bogon destination");
    return;
  }
  std::optional<PortId> out = route_for(packet.dst);
  if (!out) {
    ++counters_.dropped;
    ++sim.drops().no_route;
    sim.trace_event(*this, TraceEvent::dropped_no_route, packet);
    return;
  }
  if (!run_postrouting(sim, packet, *out)) {
    ++counters_.dropped;
    ++sim.drops().by_hook;
    return;
  }
  ++counters_.forwarded;
  sim.trace_event(*this, TraceEvent::forwarded, packet);
  sim.transmit(*this, *out, std::move(packet));
}

void Device::send_local(Simulator& sim, UdpPacket packet) {
  std::optional<PortId> out = route_for(packet.dst);
  if (!out) {
    ++sim.drops().no_route;
    sim.trace_event(*this, TraceEvent::dropped_no_route, packet, "local out");
    return;
  }
  if (!run_postrouting(sim, packet, *out)) {
    ++sim.drops().by_hook;
    return;
  }
  sim.transmit(*this, *out, std::move(packet));
}

void Device::forward_injected(Simulator& sim, UdpPacket packet) {
  // Injected packets may be addressed to this very device (a replicating
  // interceptor cloning towards its own forwarder), so run the full
  // delivery decision, not just forwarding.
  deliver_or_forward(sim, std::move(packet));
}

void Device::send_ttl_exceeded(Simulator& sim, const UdpPacket& expired) {
  // ICMP errors are not generated for other ICMP errors (RFC 1122), and a
  // router without an address of the right family stays silent.
  if (expired.kind != PacketKind::udp) return;
  auto source = local_ip(expired.src.family());
  if (!source) return;

  UdpPacket icmp;
  icmp.kind = PacketKind::icmp_ttl_exceeded;
  icmp.src = *source;
  icmp.dst = expired.src;
  icmp.sport = 0;
  icmp.dport = expired.sport;  // steer delivery to the originating socket
  icmp.payload = expired.payload;  // the quoted datagram
  icmp.quoted = FlowKey::of(expired);
  icmp.trace_id = expired.trace_id;
  send_local(sim, std::move(icmp));
}

}  // namespace dnslocate::simnet
