#include "simnet/simulator.h"

#include "obs/metrics.h"

namespace dnslocate::simnet {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

std::uint64_t Simulator::ordinal_of(const Device& device) {
  auto [it, inserted] = ordinals_.try_emplace(device.id(), ordinals_.size());
  return it->second;
}

std::pair<PortId, PortId> Simulator::connect(Device& a, Device& b, LinkConfig config) {
  ordinal_of(a);
  ordinal_of(b);
  PortId a_port = next_port_[a.id()]++;
  PortId b_port = next_port_[b.id()]++;
  links_[PortKey{a.id(), a_port}] = PortPeer{&b, b_port, config};
  links_[PortKey{b.id(), b_port}] = PortPeer{&a, a_port, config};
  return {a_port, b_port};
}

void Simulator::schedule(SimDuration delay, EventFn fn) {
  queue_.push(Event{now_ + delay, ++seq_counter_, std::move(fn)});
}

void Simulator::transmit(Device& from, PortId port, UdpPacket packet) {
  if (obs::metrics_enabled()) {
    static obs::Counter& transmits = obs::registry().counter("simnet_transmits_total");
    transmits.add_always(1);
  }
  auto it = links_.find(PortKey{from.id(), port});
  if (it == links_.end()) {
    trace_event(from, TraceEvent::dropped_no_route, packet, "unconnected port");
    return;
  }
  PortPeer& peer = it->second;
  if (peer.config.loss_rate > 0 && rng_.bernoulli(peer.config.loss_rate)) {
    ++drops_.link_loss;
    trace_event(from, TraceEvent::dropped_loss, packet);
    return;
  }

  // Fault injection: consult the plan per directed link.
  SimDuration fault_delay{0};
  bool duplicate = false;
  if (faults_ != nullptr) {
    std::uint64_t link_key = ordinal_of(from) * 1000003ull + port;
    FaultPlan::Decision decision = faults_->decide(link_key, peer.config.fault_class, packet);
    if (decision.drop) {
      if (decision.burst)
        ++drops_.fault_burst;
      else
        ++drops_.fault_random;
      trace_event(from, TraceEvent::dropped_fault, packet,
                  decision.burst ? "burst loss" : "random loss");
      return;
    }
    if (decision.truncate_to) {
      packet.payload.resize(*decision.truncate_to);
      trace_event(from, TraceEvent::fault_truncated, packet, [&] {
        return "payload cut to " + std::to_string(*decision.truncate_to) + " bytes";
      });
    }
    if (decision.extra_delay > SimDuration{0}) {
      fault_delay = decision.extra_delay;
      trace_event(from, TraceEvent::fault_delayed, packet, [&] {
        return "+" + std::to_string(decision.extra_delay.count() / 1000) + "us";
      });
    }
    if (decision.duplicate) {
      duplicate = true;
      trace_event(from, TraceEvent::fault_duplicated, packet);
    }
  }

  // Serialization and FIFO queueing when the link has a finite rate.
  SimDuration wait{0};
  SimDuration serialization{0};
  if (peer.config.bandwidth_bps > 0) {
    // Approximate on-the-wire size: payload + IP/UDP headers.
    std::uint64_t bits = (packet.payload.size() + 28) * 8;
    serialization = SimDuration(
        static_cast<SimDuration::rep>(bits * 1'000'000'000ull / peer.config.bandwidth_bps));
    SimTime start = std::max(now_, peer.busy_until);
    wait = start - now_;
    if (wait > peer.config.max_queue_delay) {
      ++drops_.queue_overflow;
      trace_event(from, TraceEvent::dropped_loss, packet, "queue overflow");
      return;
    }
    peer.busy_until = start + serialization;
  }

  trace_event(from, TraceEvent::transmitted, packet);
  Device* to = peer.peer;
  PortId to_port = peer.peer_port;
  SimDuration delivery = wait + serialization + peer.config.latency + fault_delay;
  if (duplicate) {
    // The copy rides behind the original; it is byte-identical, as a
    // network-duplicated datagram would be.
    SimDuration gap = faults_->profile_for(peer.config.fault_class).duplicate_gap;
    schedule(delivery + gap, [this, to, to_port, pkt = packet]() mutable {
      to->receive(*this, std::move(pkt), to_port);
    });
  }
  auto deliver = [this, to, to_port, pkt = std::move(packet)]() mutable {
    to->receive(*this, std::move(pkt), to_port);
  };
  // The delivery closure is the hot path: it must ride EventFn's inline
  // buffer, or every packet hop costs a heap allocation again.
  static_assert(sizeof(deliver) <= EventFn::kInlineCapacity);
  static_assert(std::is_nothrow_move_constructible_v<decltype(deliver)>);
  schedule(delivery, std::move(deliver));
}

std::size_t Simulator::run_until_idle(std::size_t max_events) {
  std::size_t processed = 0;
  while (processed < max_events && step()) ++processed;
  return processed;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  if (obs::metrics_enabled()) {
    static obs::Counter& events = obs::registry().counter("simnet_events_total");
    events.add_always(1);
  }
  // priority_queue::top is const; the handler is moved out via const_cast,
  // which is safe because the element is popped immediately after.
  Event event = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = event.at;
  event.fn();
  return true;
}

}  // namespace dnslocate::simnet
