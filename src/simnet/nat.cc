#include "simnet/nat.h"

#include "simnet/simulator.h"

namespace dnslocate::simnet {

bool DnatRule::matches(const UdpPacket& packet, std::optional<PortId> in) const {
  if (!in.has_value()) return false;  // locally generated traffic never DNATs
  if (in_port.has_value() && *in_port != *in) return false;
  if (packet.dport != match_dport) return false;
  if (family.has_value() && packet.dst.family() != *family) return false;
  if (exempt_bogon_dsts && packet.dst.is_bogon()) return false;
  if (match_bogons_only && !packet.dst.is_bogon()) return false;
  for (const auto& exempt : exempt_dsts)
    if (exempt == packet.dst) return false;
  if (!match_dsts.empty()) {
    bool found = false;
    for (const auto& dst : match_dsts)
      if (dst == packet.dst) {
        found = true;
        break;
      }
    if (!found) return false;
  }
  return target_for(packet).has_value();
}

std::optional<netbase::IpAddress> DnatRule::target_for(const UdpPacket& packet) const {
  return packet.dst.is_v4() ? new_dst_v4 : new_dst_v6;
}

bool NatHook::try_icmp_related(Simulator& sim, Device& device, UdpPacket& packet) {
  if (!packet.quoted) return false;
  auto it = by_reply_.find(packet.quoted->inverted());
  if (it == by_reply_.end()) return false;
  const Entry& entry = entries_[it->second];
  packet.dst = entry.orig.src;
  packet.dport = entry.orig.sport;
  packet.quoted = entry.orig;
  sim.trace_event(device, TraceEvent::unnat_rewritten, packet, "icmp related");
  return true;
}

bool NatHook::try_unnat(Simulator& sim, Device& device, UdpPacket& packet) {
  auto it = by_reply_.find(FlowKey::of(packet));
  if (it == by_reply_.end()) return false;
  const Entry& entry = entries_[it->second];
  FlowKey restored = entry.orig.inverted();
  packet.src = restored.src;
  packet.sport = restored.sport;
  packet.dst = restored.dst;
  packet.dport = restored.dport;
  packet.conntrack_id = it->second;
  ++unnat_hits_;
  sim.trace_event(device, TraceEvent::unnat_rewritten, packet,
                  [&] { return "restored to " + restored.to_string(); });
  return true;
}

void NatHook::reindex(std::uint64_t entry_id) {
  const Entry& entry = entries_[entry_id];
  by_orig_[entry.orig] = entry_id;
  by_reply_[entry.translated.inverted()] = entry_id;
}

HookVerdict NatHook::prerouting(Simulator& sim, Device& device, UdpPacket& packet,
                                std::optional<PortId> in_port) {
  // 0. ICMP errors about a tracked flow (RELATED): translate the error's
  //    destination and quoted tuple back to the pre-NAT view, so
  //    traceroute-style probes work from behind the NAT.
  if (packet.kind == PacketKind::icmp_ttl_exceeded) {
    try_icmp_related(sim, device, packet);
    return HookVerdict::accept;
  }

  // 1. Reply of a tracked flow: restore the original tuple. This is the
  //    source-spoofing step that makes interception transparent.
  if (try_unnat(sim, device, packet)) return HookVerdict::accept;

  // 2. Established flow in the original direction: reapply the translation.
  if (auto it = by_orig_.find(FlowKey::of(packet)); it != by_orig_.end()) {
    const Entry& entry = entries_[it->second];
    packet.src = entry.translated.src;
    packet.sport = entry.translated.sport;
    packet.dst = entry.translated.dst;
    packet.dport = entry.translated.dport;
    packet.conntrack_id = it->second;
    return HookVerdict::accept;
  }

  // 3. New flow: evaluate DNAT rules in order.
  for (const DnatRule& rule : dnat_rules_) {
    if (!rule.matches(packet, in_port)) continue;
    netbase::IpAddress target = *rule.target_for(packet);
    std::uint16_t target_port = rule.new_dport.value_or(packet.dport);

    if (rule.replicate) {
      // Divert a copy; the original continues untouched.
      UdpPacket clone = packet;
      clone.dst = target;
      clone.dport = target_port;
      std::uint64_t entry_id = entries_.size();
      entries_.push_back(Entry{FlowKey::of(packet), FlowKey::of(clone)});
      reindex(entry_id);
      clone.conntrack_id = entry_id;
      ++dnat_hits_;
      sim.trace_event(device, TraceEvent::replicated, clone,
                      [&] { return "copy diverted to " + clone.dst_endpoint().to_string(); });
      device.forward_injected(sim, std::move(clone));
      return HookVerdict::accept;
    }

    std::uint64_t entry_id = entries_.size();
    FlowKey orig = FlowKey::of(packet);
    packet.dst = target;
    packet.dport = target_port;
    entries_.push_back(Entry{orig, FlowKey::of(packet)});
    reindex(entry_id);
    packet.conntrack_id = entry_id;
    ++dnat_hits_;
    sim.trace_event(device, TraceEvent::dnat_rewritten, packet, [&] {
      return "dst " + netbase::Endpoint{orig.dst, orig.dport}.to_string() + " -> " +
             packet.dst_endpoint().to_string();
    });
    return HookVerdict::accept;
  }
  return HookVerdict::accept;
}

HookVerdict NatHook::postrouting(Simulator& sim, Device& device, UdpPacket& packet,
                                 PortId out_port) {
  // ICMP generated by this very device about a flow it translated (e.g.
  // the access router DNAT'ing and then expiring a packet) carries the
  // post-translation quoted tuple; restore it so downstream NATs match.
  if (packet.kind == PacketKind::icmp_ttl_exceeded) {
    try_icmp_related(sim, device, packet);
    return HookVerdict::accept;
  }

  // Locally generated replies (e.g. the CPE forwarder answering a DNAT'd
  // query) are restored here; this is the CPE's spoofed response.
  if (try_unnat(sim, device, packet)) return HookVerdict::accept;

  for (const SnatRule& rule : snat_rules_) {
    if (rule.out_port != out_port) continue;
    const auto& to_source = packet.src.is_v4() ? rule.to_source_v4 : rule.to_source_v6;
    if (!to_source.has_value()) continue;
    if (packet.src == *to_source) return HookVerdict::accept;  // already translated / own traffic

    std::uint64_t entry_id;
    if (packet.conntrack_id.has_value()) {
      // Flow already DNAT'd at PREROUTING: extend the same entry.
      entry_id = *packet.conntrack_id;
      by_reply_.erase(entries_[entry_id].translated.inverted());
    } else {
      entry_id = entries_.size();
      entries_.push_back(Entry{FlowKey::of(packet), FlowKey::of(packet)});
      packet.conntrack_id = entry_id;
    }
    const netbase::Endpoint orig_src = packet.src_endpoint();
    packet.src = *to_source;
    packet.sport = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 60000 ? 33000 : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    entries_[entry_id].translated.src = packet.src;
    entries_[entry_id].translated.sport = packet.sport;
    reindex(entry_id);
    ++snat_hits_;
    sim.trace_event(device, TraceEvent::snat_rewritten, packet, [&] {
      return "src " + orig_src.to_string() + " -> " + packet.src_endpoint().to_string();
    });
    return HookVerdict::accept;
  }
  return HookVerdict::accept;
}

}  // namespace dnslocate::simnet
