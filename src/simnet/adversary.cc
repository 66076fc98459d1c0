#include "simnet/adversary.h"

#include <utility>

#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "dnswire/message.h"
#include "dnswire/record.h"
#include "dnswire/view.h"
#include "netbase/endpoint.h"
#include "simnet/simulator.h"

namespace dnslocate::simnet {
namespace {

/// The header flags word starts at octet 2; TC is bit 0x0200 of it.
constexpr std::size_t kFlagsHighByte = 2;
constexpr std::uint8_t kTcBit = 0x02;

/// Craft the forged answer for an observed query: a wrong address for
/// A/AAAA, a wrong display string for TXT (any class — location queries and
/// version.bind both get raced), an empty NOERROR otherwise.
dnswire::Message forge_answer(const dnswire::Message& query, const SpooferConfig& config) {
  const dnswire::Question* q = query.question();
  if (q == nullptr) return dnswire::make_response(query, dnswire::Rcode::NOERROR);
  switch (q->type) {
    case dnswire::RecordType::A: {
      dnswire::Message m = dnswire::make_response(query, dnswire::Rcode::NOERROR);
      m.answers.push_back(dnswire::make_a(q->name, config.answer_v4));
      return m;
    }
    case dnswire::RecordType::AAAA: {
      dnswire::Message m = dnswire::make_response(query, dnswire::Rcode::NOERROR);
      m.answers.push_back(dnswire::make_aaaa(q->name, config.answer_v6));
      return m;
    }
    case dnswire::RecordType::TXT:
      return dnswire::make_txt_response(query, config.display, 60);
    default:
      return dnswire::make_response(query, dnswire::Rcode::NOERROR);
  }
}

/// Build the injected packet for a forged response to `observed`.
UdpPacket forge_packet(const UdpPacket& observed, const dnswire::Message& response,
                       const SpooferConfig& config) {
  UdpPacket forged;
  forged.src = observed.dst;  // correct egress: looks like the queried server
  if (config.forge_source) {
    if (observed.dst.is_v4())
      forged.src = netbase::IpAddress(config.forged_source_v4);
    // v6 wrong-egress keeps the v4 knob simple: forge only for v4 flows.
  }
  forged.dst = observed.src;
  forged.sport = observed.dport;
  forged.dport = observed.sport;
  forged.ttl = config.injected_ttl;
  forged.channel = observed.channel;
  forged.payload = dnswire::encode_message(response);
  forged.trace_id = observed.trace_id;
  return forged;
}

}  // namespace

SpooferHook::SpooferHook(SpooferConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

HookVerdict SpooferHook::prerouting(Simulator& sim, Device& device, UdpPacket& packet,
                                    std::optional<PortId>) {
  // Observe only plain-UDP DNS queries; the injector cannot forge inside a
  // TLS stream, and it never reacts to responses (or to its own forgeries,
  // which re-enter via forward_injected and skip PREROUTING entirely).
  if (packet.kind != PacketKind::udp || packet.channel != Channel::udp ||
      packet.dport != netbase::kDnsPort)
    return HookVerdict::accept;
  auto query = dnswire::decode_message(packet.payload);
  if (!query || query->is_response()) return HookVerdict::accept;
  ++queries_seen_;

  if (config_.on_path) {
    // Full view of the query: the forgery copies the transaction ID and the
    // exact 0x20 casing, so it passes RFC 5452 and races the genuine answer.
    UdpPacket forged = forge_packet(packet, forge_answer(*query, config_), config_);
    ++injections_;
    sim.schedule(config_.injection_delay,
                 [&sim, device = &device, forged = std::move(forged)]() mutable {
                   device->forward_injected(sim, std::move(forged));
                 });
  } else {
    // Off-path behaviour: the ID is unknown, so each injection carries a
    // guess from the seeded stream. A wrong guess fails acceptance at the
    // client and is counted as spoof-suspected evidence.
    for (unsigned guess = 0; guess < config_.id_guesses; ++guess) {
      dnswire::Message response = forge_answer(*query, config_);
      response.id = static_cast<std::uint16_t>(rng_.next_u64());
      UdpPacket forged = forge_packet(packet, response, config_);
      ++injections_;
      sim.schedule(config_.injection_delay,
                   [&sim, device = &device, forged = std::move(forged)]() mutable {
                     device->forward_injected(sim, std::move(forged));
                   });
    }
  }
  return HookVerdict::accept;
}

DpiPersonality dpi_foldix() {
  DpiPersonality p;
  p.vendor = "foldix";
  p.fold_case = true;
  return p;
}

DpiPersonality dpi_optstrip() {
  DpiPersonality p;
  p.vendor = "optstrip";
  p.strip_edns = true;
  return p;
}

DpiPersonality dpi_truncor() {
  DpiPersonality p;
  p.vendor = "truncor";
  p.rewrite_tc = true;
  return p;
}

DpiPersonality dpi_omnibox() {
  DpiPersonality p;
  p.vendor = "omnibox";
  p.fold_case = true;
  p.strip_edns = true;
  p.rewrite_tc = true;
  return p;
}

DpiHook::DpiHook(DpiPersonality personality) : personality_(std::move(personality)) {}

HookVerdict DpiHook::prerouting(Simulator&, Device&, UdpPacket& packet, std::optional<PortId>) {
  if (packet.kind != PacketKind::udp || packet.channel != Channel::udp)
    return HookVerdict::accept;

  if (packet.dport == netbase::kDnsPort &&
      (personality_.fold_case || personality_.strip_edns)) {
    auto query = dnswire::decode_message(packet.payload);
    if (!query || query->is_response()) return HookVerdict::accept;  // fail open
    bool mutated = false;
    if (personality_.fold_case) {
      for (auto& question : query->questions) {
        dnswire::DnsName folded = question.name.to_lower();
        if (!(folded == question.name)) {
          question.name = std::move(folded);
          mutated = true;
        }
      }
    }
    if (personality_.strip_edns) {
      dnswire::RecordSection kept;
      for (auto& rr : query->additionals) {
        if (rr.type == dnswire::RecordType::OPT)
          mutated = true;
        else
          kept.push_back(std::move(rr));
      }
      if (mutated) query->additionals = std::move(kept);
    }
    if (mutated) {
      packet.payload = dnswire::encode_message(*query);
      ++queries_mutated_;
    }
    return HookVerdict::accept;
  }

  if (packet.sport == netbase::kDnsPort && personality_.rewrite_tc) {
    // TC is one header bit, so it is set in place: the response only has to
    // walk (decode_view), not materialize.
    auto response = dnswire::decode_view(packet.payload);
    if (!response || !response->is_response()) return HookVerdict::accept;  // fail open
    if (!response->flags().tc) {
      // Set TC while leaving the answers intact: a self-contradictory
      // message no real server emits — the fingerprint probe's signal.
      packet.payload[kFlagsHighByte] |= kTcBit;
      ++responses_mutated_;
    }
    return HookVerdict::accept;
  }

  return HookVerdict::accept;
}

}  // namespace dnslocate::simnet
