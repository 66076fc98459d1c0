// Deterministic discrete-event simulator: owns devices, links, the event
// queue, and simulated time. One Simulator instance models one independent
// slice of Internet (a probe's home, its ISP, transit, and the resolvers).
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simnet/device.h"
#include "simnet/event_fn.h"
#include "simnet/fault.h"
#include "simnet/rng.h"
#include "simnet/time.h"
#include "simnet/trace.h"

namespace dnslocate::simnet {

/// Per-link properties.
struct LinkConfig {
  SimDuration latency = std::chrono::milliseconds(1);
  double loss_rate = 0.0;  // i.i.d. per-packet loss probability
  /// Link rate in bits/second; 0 = infinite (no serialization delay, no
  /// queueing). With a rate set, packets serialize one at a time and a
  /// FIFO queue forms; arrivals that would wait longer than
  /// `max_queue_delay` are tail-dropped.
  std::uint64_t bandwidth_bps = 0;
  SimDuration max_queue_delay = std::chrono::milliseconds(50);
  /// Fault-plan profile selector ("lan", "access", "isp", "transit", ...).
  /// Empty means the plan's default profile applies.
  std::string fault_class;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  [[nodiscard]] SimTime now() const { return now_; }
  Rng& rng() { return rng_; }

  /// Construct and register a device. The simulator owns it; the returned
  /// reference stays valid for the simulator's lifetime.
  template <typename D = Device, typename... Args>
  D& add_device(Args&&... args) {
    auto owned = std::make_unique<D>(std::forward<Args>(args)...);
    D& ref = *owned;
    devices_.push_back(std::move(owned));
    return ref;
  }

  /// Connect two devices with a bidirectional link; returns the pair of
  /// freshly allocated port ids (a's port, b's port).
  std::pair<PortId, PortId> connect(Device& a, Device& b, LinkConfig config = {});

  /// Schedule `fn` to run after `delay`. EventFn keeps packet-delivery
  /// closures in inline storage — see event_fn.h.
  void schedule(SimDuration delay, EventFn fn);

  /// Transmit `packet` out of `port` on `from`; the peer receives it after
  /// the link latency unless the link loss model drops it.
  void transmit(Device& from, PortId port, UdpPacket packet);

  /// Run events until the queue drains or `max_events` fire.
  /// Returns the number of events processed.
  std::size_t run_until_idle(std::size_t max_events = 100'000'000);

  /// Process a single event; returns false when the queue is empty.
  /// Lets synchronous clients (SimTransport) interleave with the sim.
  bool step();

  /// Fresh id for a new packet lineage.
  std::uint64_t next_trace_id() { return ++trace_counter_; }

  /// Optional trace sink (not owned). Null disables tracing.
  void set_trace(TraceSink* sink) { trace_ = sink; }
  [[nodiscard]] TraceSink* trace() const { return trace_; }

  /// Optional fault-injection plan (not owned). Null disables injection.
  void set_fault_plan(FaultPlan* plan) { faults_ = plan; }
  [[nodiscard]] FaultPlan* fault_plan() const { return faults_; }

  /// Per-cause drop tally, always on (devices report their drops here too).
  [[nodiscard]] const DropCounters& drops() const { return drops_; }
  DropCounters& drops() { return drops_; }

  /// Record a trace event if tracing is enabled. A detail is either static
  /// text or a callable returning std::string that runs only when a sink is
  /// attached: formatting a detail costs nothing untraced. (No std::string
  /// overload, so an eagerly built detail does not compile.)
  void trace_event(const Device& device, TraceEvent event, const UdpPacket& packet,
                   const char* detail = "") {
    if (trace_ != nullptr) trace_->record(now_, device.name(), event, packet, detail);
  }
  template <std::invocable MakeDetail>
  void trace_event(const Device& device, TraceEvent event, const UdpPacket& packet,
                   MakeDetail&& make_detail) {
    if (trace_ != nullptr) trace_->record(now_, device.name(), event, packet, make_detail());
  }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;  // FIFO tie-break for determinism
    EventFn fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  struct PortPeer {
    Device* peer = nullptr;
    PortId peer_port = 0;
    LinkConfig config;
    SimTime busy_until{};  // transmitter state (per direction)
  };
  struct PortKey {
    std::uint64_t device_id;
    PortId port;
    friend bool operator==(const PortKey&, const PortKey&) = default;
  };
  struct PortKeyHash {
    std::size_t operator()(const PortKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.device_id * 1000003ull + k.port);
    }
  };

  /// Per-simulator device ordinal, assigned in connect() order. Fault-plan
  /// link keys are built from this (not Device::id(), which comes from a
  /// process-wide counter and so varies with thread interleaving when many
  /// simulators run concurrently).
  std::uint64_t ordinal_of(const Device& device);

  SimTime now_ = kSimStart;
  Rng rng_;
  std::uint64_t seq_counter_ = 0;
  std::uint64_t trace_counter_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unordered_map<PortKey, PortPeer, PortKeyHash> links_;
  std::unordered_map<std::uint64_t, PortId> next_port_;  // per-device allocator
  std::unordered_map<std::uint64_t, std::uint64_t> ordinals_;  // device id -> ordinal
  TraceSink* trace_ = nullptr;
  FaultPlan* faults_ = nullptr;
  DropCounters drops_;
};

}  // namespace dnslocate::simnet
