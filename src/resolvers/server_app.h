// DnsServerApp: binds a DnsResponder to a device's UDP port 53.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "dnswire/encoder.h"
#include "dnswire/message.h"
#include "netbase/ip_address.h"
#include "simnet/device.h"
#include "simnet/time.h"

namespace dnslocate::resolvers {

/// Context passed to responders with each query.
struct QueryContext {
  netbase::IpAddress client;     // source address of the query as received
  netbase::IpAddress server_ip;  // the local address the query was sent to
  simnet::SimTime now{};
};

/// Answer policy for a DNS server. Return nullopt to stay silent (the
/// client sees a timeout).
class DnsResponder {
 public:
  virtual ~DnsResponder() = default;
  virtual std::optional<dnswire::Message> respond(const dnswire::Message& query,
                                                  const QueryContext& context) = 0;
};

/// What serve_query did with one request.
enum class ServeOutcome : std::uint8_t { malformed, silent, answered, truncated };

/// One server turn, shared by DnsServerApp and the loopback socket server:
/// decode `payload`, drop what is not a query (malformed), ask `responder`
/// (silent if it declines), echo an OPT record when the query carried one
/// (RFC 6891 §6.1.1) and encode the answer into `wire`. With `udp`, an
/// answer over the query's payload limit is truncated (RFC 2181 §9).
ServeOutcome serve_query(DnsResponder& responder, std::span<const std::uint8_t> payload,
                         const QueryContext& context, bool udp, dnswire::WireBuffer& wire);

/// UDP app that serves each query through serve_query and sends the reply
/// sourced from the address the query was addressed to. Responses larger
/// than the client's advertised EDNS payload size (512 octets without an
/// OPT record, RFC 1035/6891) are truncated: answers stripped, TC set.
class DnsServerApp : public simnet::UdpApp {
 public:
  explicit DnsServerApp(std::shared_ptr<DnsResponder> responder)
      : responder_(std::move(responder)) {}

  /// Size limit for a query: the OPT payload size, clamped to >= 512.
  static std::size_t udp_payload_limit(const dnswire::Message& query);

  /// Encode `response` into `wire`. If the encoding exceeds `limit`, apply
  /// RFC 2181 §9 truncation to `response` and re-encode. Returns true if
  /// truncation happened.
  static bool encode_to_fit(dnswire::Message& response, std::size_t limit,
                            dnswire::WireBuffer& wire);

  void on_datagram(simnet::Simulator& sim, simnet::Device& self,
                   const simnet::UdpPacket& packet) override;

  /// Artificial processing delay before the response leaves (models resolver
  /// work; keeps interceptor-vs-origin response races realistic).
  void set_processing_delay(simnet::SimDuration delay) { processing_delay_ = delay; }

  [[nodiscard]] std::uint64_t queries_seen() const { return queries_seen_; }
  [[nodiscard]] std::uint64_t responses_sent() const { return responses_sent_; }
  [[nodiscard]] std::uint64_t malformed_dropped() const { return malformed_dropped_; }
  [[nodiscard]] std::uint64_t truncated() const { return truncated_; }
  /// Strict-DoT handshakes refused because this server cannot present the
  /// identity the client validates (i.e. the flow was diverted here).
  [[nodiscard]] std::uint64_t tls_rejected() const { return tls_rejected_; }

 private:
  std::shared_ptr<DnsResponder> responder_;
  simnet::SimDuration processing_delay_ = std::chrono::microseconds(200);
  std::uint64_t queries_seen_ = 0;
  std::uint64_t responses_sent_ = 0;
  std::uint64_t malformed_dropped_ = 0;
  std::uint64_t tls_rejected_ = 0;
  std::uint64_t truncated_ = 0;
};

}  // namespace dnslocate::resolvers
