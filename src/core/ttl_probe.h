// TTL-based interceptor hop localization — the §6 "future work" the paper
// could not run on RIPE Atlas (the platform cannot set the IP TTL of DNS
// requests). With a transport that honours QueryOptions::ttl, the
// interceptor's hop distance is the smallest TTL whose query still draws a
// DNS response: any smaller TTL expires in the network before reaching the
// box that answers.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/query_batch.h"
#include "core/transport.h"
#include "dnswire/name.h"
#include "netbase/endpoint.h"

namespace dnslocate::core {

/// Result of a TTL sweep towards one server.
struct TtlSweepReport {
  netbase::Endpoint target;
  /// answered[i] == true if TTL i+1 drew a response.
  std::vector<bool> answered;
  /// Hop distance of whatever answers the query: min TTL with a response.
  std::optional<std::uint8_t> responder_hop;
};

class TtlLocalizer {
 public:
  struct Config {
    QueryOptions query;
    std::uint8_t max_ttl = 16;
  };

  TtlLocalizer() = default;
  explicit TtlLocalizer(Config config) : config_(config) {}

  /// Sweep TTL 1..max_ttl with version.bind queries towards `target`, as
  /// one declarative QueryBatch (results interpreted by index, so the
  /// report is engine-independent). Requires supports_ttl(); returns an
  /// empty report otherwise. If the engine drained the batch (cancellation
  /// cut it short), `*drained` is set and the report covers only what
  /// completed queries actually showed.
  TtlSweepReport sweep(AsyncQueryTransport& engine, const netbase::Endpoint& target,
                       bool* drained = nullptr);

  /// Convenience: hop distance of the responder (see TtlSweepReport), or
  /// nullopt if nothing answered (or TTL is unsupported).
  std::optional<std::uint8_t> responder_hop(AsyncQueryTransport& engine,
                                            const netbase::Endpoint& target);

 private:
  Config config_;
  std::uint16_t next_id_ = 0x5000;
};

}  // namespace dnslocate::core
