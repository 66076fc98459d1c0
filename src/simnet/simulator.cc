#include "simnet/simulator.h"

#include <stdexcept>

#include "obs/metrics.h"

namespace dnslocate::simnet {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

std::uint32_t Simulator::ordinal_of(Device& device) {
  if (device.linked_sim_ == this) return device.ordinal_;
  if (device.linked_sim_ != nullptr)
    throw std::logic_error("Simulator::connect: device " + device.name() +
                           " is linked in another simulator");
  device.linked_sim_ = this;
  device.ordinal_ = static_cast<std::uint32_t>(ports_.size());
  ports_.emplace_back();
  return device.ordinal_;
}

std::pair<PortId, PortId> Simulator::connect(Device& a, Device& b, LinkConfig config) {
  std::uint32_t a_ordinal = ordinal_of(a);
  std::uint32_t b_ordinal = ordinal_of(b);
  // Ports are indices into the device's table; a device linked to itself
  // takes the next two.
  auto a_port = static_cast<PortId>(ports_[a_ordinal].size());
  auto b_port = static_cast<PortId>(ports_[b_ordinal].size()) + (a_ordinal == b_ordinal);
  auto link_end = [&](std::uint32_t ordinal, PortId port, Device& peer, PortId peer_port) {
    PortPeer end;
    end.peer = &peer;
    end.peer_port = peer_port;
    end.config = config;
    if (faults_ != nullptr) end.fault_state = faults_->link_state(link_key(ordinal, port));
    return end;
  };
  ports_[a_ordinal].push_back(link_end(a_ordinal, a_port, b, b_port));
  ports_[b_ordinal].push_back(link_end(b_ordinal, b_port, a, a_port));
  return {a_port, b_port};
}

void Simulator::set_fault_plan(FaultPlan* plan) {
  faults_ = plan;
  if (plan == nullptr) return;
  for (std::uint32_t ordinal = 0; ordinal < ports_.size(); ++ordinal) {
    std::vector<PortPeer>& ports = ports_[ordinal];
    for (PortId port = 0; port < ports.size(); ++port) {
      ports[port].fault_state = plan->link_state(link_key(ordinal, port));
      ports[port].fault_generation = 0;  // resolve the profile on the next packet
    }
  }
}

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if (slots_made_ == slot_chunks_.size() * kSlotChunk) {
    slot_chunks_.push_back(std::make_unique_for_overwrite<EventFn[]>(kSlotChunk));
    // Every slot can be free at once; reserving here keeps release_slot
    // from allocating.
    free_slots_.reserve(slot_chunks_.size() * kSlotChunk);
  }
  return slots_made_++;
}

void Simulator::release_slot(std::uint32_t index) noexcept {
  slot(index).reset();
  free_slots_.push_back(index);
}

void Simulator::schedule(SimDuration delay, EventFn fn) {
  std::uint32_t index = acquire_slot();
  slot(index) = std::move(fn);
  queue_.push(Scheduled{now_ + delay, ++seq_counter_, index});
}

void Simulator::transmit(Device& from, PortId port, UdpPacket packet) {
  if (obs::metrics_enabled()) {
    static obs::Counter& transmits = obs::registry().counter("simnet_transmits_total");
    transmits.add_always(1);
  }
  if (from.linked_sim_ != this || port >= ports_[from.ordinal_].size()) {
    trace_event(from, TraceEvent::dropped_no_route, packet, "unconnected port");
    return;
  }
  PortPeer& peer = ports_[from.ordinal_][port];
  if (peer.config.loss_rate > 0 && rng_.bernoulli(peer.config.loss_rate)) {
    ++drops_.link_loss;
    trace_event(from, TraceEvent::dropped_loss, packet);
    return;
  }

  // Fault injection: consult the plan per directed link.
  SimDuration fault_delay{0};
  bool duplicate = false;
  if (faults_ != nullptr) {
    if (peer.fault_generation != faults_->generation()) {
      peer.fault_profile = &faults_->profile_for(peer.config.fault_class);
      peer.fault_generation = faults_->generation();
    }
    FaultPlan::Decision decision = faults_->decide(*peer.fault_profile, peer.fault_state, packet);
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
    SimDuration gap = peer.fault_profile->duplicate_gap;
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
  Scheduled next = queue_.top();
  queue_.pop();
  now_ = next.at;
  // The handler runs in its slot, which goes back to the free list only
  // afterwards (also if it throws): events it schedules take other slots.
  struct Release {
    Simulator& sim;
    std::uint32_t index;
    ~Release() { sim.release_slot(index); }
  } release{*this, next.slot};
  slot(next.slot)();
  return true;
}

}  // namespace dnslocate::simnet
