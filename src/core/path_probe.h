// Traceroute-style path probing with DNS payloads — the full version of the
// §6 TTL idea: besides the responder's hop distance, ICMP Time Exceeded
// errors identify each router on the path, so the probe can name the hop at
// which an interceptor answers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/query_batch.h"
#include "core/transport.h"
#include "netbase/endpoint.h"

namespace dnslocate::core {

/// One TTL step of a path probe.
struct PathHop {
  std::uint8_t ttl = 0;
  /// Router that reported Time Exceeded at this TTL, if any.
  std::optional<netbase::IpAddress> router;
  /// True if the DNS query itself was answered at this TTL — the responder
  /// (real resolver or interceptor) lives at this hop distance.
  bool dns_answered = false;

  [[nodiscard]] std::string to_string() const;
};

/// Full path report towards one server.
struct PathReport {
  netbase::Endpoint target;
  std::vector<PathHop> hops;
  /// Hop distance of whatever answers the DNS query.
  std::optional<std::uint8_t> responder_hop;
  /// Router addresses collected before the responder, in hop order.
  [[nodiscard]] std::vector<netbase::IpAddress> routers() const;
  [[nodiscard]] std::string to_string() const;
};

class PathProber {
 public:
  struct Config {
    QueryOptions query;
    std::uint8_t max_ttl = 16;
    /// Truncate the report at the hop where the DNS response arrives (a
    /// traceroute that reached its destination). The batch still probes
    /// every TTL up to max_ttl — the plan is fixed before execution — but
    /// hops past the responder are omitted from the report.
    bool stop_at_responder = true;
  };

  PathProber() = default;
  explicit PathProber(Config config) : config_(config) {}

  /// Probe the path towards `target` with version.bind queries of
  /// increasing TTL, as one declarative QueryBatch (results interpreted by
  /// index). Requires supports_ttl(). `*drained` is set when cancellation
  /// cut the batch short.
  PathReport trace(AsyncQueryTransport& engine, const netbase::Endpoint& target,
                   bool* drained = nullptr);

 private:
  Config config_;
  std::uint16_t next_id_ = 0x7000;
};

}  // namespace dnslocate::core
