// The simulated network device: hosts, routers, CPE, middleboxes, and
// resolver servers are all Devices differing only in configuration —
// local IPs, bound UDP applications, routes, and packet hooks.
//
// The datapath mirrors the Linux netfilter pipeline closely enough that the
// paper's mechanisms (DNAT interception, masquerading, the CPE
// "role switch") fall out mechanically:
//
//   receive -> PREROUTING hooks -> local delivery | forward -> POSTROUTING
//   app send ------------------------------------^ (local out)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "netbase/lpm.h"
#include "simnet/packet.h"
#include "simnet/time.h"

namespace dnslocate::simnet {

class Simulator;
class Device;

/// Index of a device port. Ports are created implicitly by Simulator::connect.
using PortId = std::uint32_t;

/// A UDP application bound to a port on a device (DNS client, forwarder,
/// resolver). `on_datagram` runs when a packet is locally delivered.
class UdpApp {
 public:
  virtual ~UdpApp() = default;
  virtual void on_datagram(Simulator& sim, Device& self, const UdpPacket& packet) = 0;
};

/// Hook verdicts. `accept` lets the packet continue (possibly rewritten).
enum class HookVerdict { accept, drop };

/// A netfilter-style packet filter. Hooks run in the order they were added.
class PacketHook {
 public:
  virtual ~PacketHook() = default;

  /// Before the local-delivery/forwarding decision. `in_port` is the arrival
  /// port, or nullopt for locally generated packets.
  virtual HookVerdict prerouting(Simulator&, Device&, UdpPacket&, std::optional<PortId> in_port) {
    (void)in_port;
    return HookVerdict::accept;
  }

  /// Before transmission (forwarded and locally generated packets).
  virtual HookVerdict postrouting(Simulator&, Device&, UdpPacket&, PortId out_port) {
    (void)out_port;
    return HookVerdict::accept;
  }
};

/// A simulated device.
class Device {
 public:
  explicit Device(std::string name);
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  // --- configuration ---

  /// Add an address owned by this device (local delivery target).
  void add_local_ip(const netbase::IpAddress& addr);
  [[nodiscard]] bool has_local_ip(const netbase::IpAddress& addr) const;
  [[nodiscard]] const std::vector<netbase::IpAddress>& local_ips() const { return local_ips_; }
  /// First local address of the given family, if any.
  [[nodiscard]] std::optional<netbase::IpAddress> local_ip(netbase::IpFamily family) const;

  /// Bind/unbind an app on a UDP port (all local addresses). The device does
  /// not own the app; callers keep it alive for the device's lifetime.
  void bind_udp(std::uint16_t port, UdpApp* app);
  void unbind_udp(std::uint16_t port);
  [[nodiscard]] bool is_udp_bound(std::uint16_t port) const;

  /// Static routes. Longest prefix wins; use family default (0.0.0.0/0,
  /// ::/0) prefixes for default routes.
  void add_route(const netbase::Prefix& prefix, PortId out_port);
  void set_default_route(PortId out_port);  // both families
  [[nodiscard]] std::optional<PortId> route_for(const netbase::IpAddress& dst) const;

  /// Install a packet hook; hooks run in insertion order.
  void add_hook(std::shared_ptr<PacketHook> hook);

  /// Hosts leave this false: packets not addressed to them are dropped.
  void set_forwarding(bool enabled) { forwarding_ = enabled; }

  /// Border-router behaviour: silently drop forwarded packets whose
  /// destination is a bogon (no route on the real Internet). This is what
  /// makes §3.3's bogon inference sound.
  void set_drop_bogon_destinations(bool enabled) { drop_bogons_ = enabled; }

  // --- datapath ---

  /// Link delivery entry point (called by the Simulator).
  virtual void receive(Simulator& sim, UdpPacket packet, PortId in_port);

  /// Send a locally generated packet: routes, runs POSTROUTING, transmits.
  void send_local(Simulator& sim, UdpPacket packet);

  /// Forward a packet as if it had passed PREROUTING already (used by
  /// replicating interceptors to inject the diverted clone).
  void forward_injected(Simulator& sim, UdpPacket packet);

  /// Datapath counters (observability; cheap, always on).
  struct Counters {
    std::uint64_t received = 0;
    std::uint64_t delivered = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t dropped = 0;  // any drop cause
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  void deliver_or_forward(Simulator& sim, UdpPacket&& packet);
  void forward(Simulator& sim, UdpPacket&& packet);
  void send_ttl_exceeded(Simulator& sim, const UdpPacket& expired);
  bool run_prerouting(Simulator& sim, UdpPacket& packet, std::optional<PortId> in_port);
  bool run_postrouting(Simulator& sim, UdpPacket& packet, PortId out_port);

  [[nodiscard]] UdpApp* bound_app(std::uint16_t port) const;

  // The simulator that connected this device, and the device's ordinal
  // there (connect() order). The ordinal indexes that simulator's port
  // table and keys the device's fault-plan links; Simulator sets both. A
  // device is linked into one simulator for its whole life.
  friend class Simulator;
  const Simulator* linked_sim_ = nullptr;
  std::uint32_t ordinal_ = 0;

  std::string name_;
  std::vector<netbase::IpAddress> local_ips_;
  /// (port, app) pairs: a device binds at most a handful of ports, so a
  /// linear scan beats hashing.
  std::vector<std::pair<std::uint16_t, UdpApp*>> udp_bindings_;
  netbase::LpmTable<PortId> routes_;
  std::vector<std::shared_ptr<PacketHook>> hooks_;
  Counters counters_;
  bool forwarding_ = false;
  bool drop_bogons_ = false;
};

}  // namespace dnslocate::simnet
