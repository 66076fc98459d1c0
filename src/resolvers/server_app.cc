#include "resolvers/server_app.h"

#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "simnet/simulator.h"

namespace dnslocate::resolvers {

std::size_t DnsServerApp::udp_payload_limit(const dnswire::Message& query) {
  for (const auto& rr : query.additionals) {
    if (rr.type != dnswire::RecordType::OPT) continue;
    if (const auto* opt = std::get_if<dnswire::OptRecord>(&rr.rdata))
      return std::max<std::size_t>(512, opt->udp_payload_size);
  }
  return 512;
}

bool DnsServerApp::encode_to_fit(dnswire::Message& response, std::size_t limit,
                                 dnswire::WireBuffer& wire) {
  wire = dnswire::encode_message(response);
  if (wire.size() <= limit) return false;
  // RFC 2181 §9: set TC and let the client retry over TCP (not modelled);
  // conservative servers strip the answer sections entirely.
  response.answers.clear();
  response.authorities.clear();
  response.flags.tc = true;
  wire = dnswire::encode_message(response);
  return true;
}

ServeOutcome serve_query(DnsResponder& responder, std::span<const std::uint8_t> payload,
                         const QueryContext& context, bool udp, dnswire::WireBuffer& wire) {
  auto query = dnswire::decode_message(payload);
  if (!query || query->is_response()) return ServeOutcome::malformed;
  std::optional<dnswire::Message> response = responder.respond(*query, context);
  if (!response) return ServeOutcome::silent;
  // RFC 6891 §6.1.1: an EDNS-aware server answers an OPT-bearing query with
  // an OPT record of its own. The echo doubles as a middlebox canary — a
  // DPI device that strips EDNS from queries leaves the response bare (see
  // simnet/adversary.h), which the fingerprint probe detects.
  if (response->is_response() && query->has_opt() && !response->has_opt())
    response->add_opt();
  if (!udp) {
    wire = dnswire::encode_message(*response);
    return ServeOutcome::answered;
  }
  return DnsServerApp::encode_to_fit(*response, DnsServerApp::udp_payload_limit(*query), wire)
             ? ServeOutcome::truncated
             : ServeOutcome::answered;
}

void DnsServerApp::on_datagram(simnet::Simulator& sim, simnet::Device& self,
                               const simnet::UdpPacket& packet) {
  // Strict-profile DoT: the client validates the certificate against the
  // address it dialled. A diverted connection lands on a server that cannot
  // present that identity — the handshake fails and the client hears
  // nothing. This is why strict DoT defeats DNAT interception (§6).
  if (packet.channel == simnet::Channel::dot_strict && packet.tls_expected_peer &&
      !self.has_local_ip(*packet.tls_expected_peer)) {
    ++tls_rejected_;
    return;
  }
  ++queries_seen_;
  simnet::UdpPacket reply;
  // DoT is stream-based; size limits apply to plain UDP only.
  switch (serve_query(*responder_, packet.payload, {packet.src, packet.dst, sim.now()},
                      packet.channel == simnet::Channel::udp, reply.payload)) {
    case ServeOutcome::malformed: ++malformed_dropped_; return;
    case ServeOutcome::silent: return;
    case ServeOutcome::truncated: ++truncated_; break;
    case ServeOutcome::answered: break;
  }
  reply.src = packet.dst;  // answer from the address the client targeted
  reply.dst = packet.src;
  reply.sport = packet.dport;
  reply.dport = packet.sport;
  reply.channel = packet.channel;
  reply.trace_id = packet.trace_id;
  ++responses_sent_;

  simnet::Device* device = &self;
  sim.schedule(processing_delay_, [&sim, device, reply = std::move(reply)]() mutable {
    device->send_local(sim, std::move(reply));
  });
}

}  // namespace dnslocate::resolvers
