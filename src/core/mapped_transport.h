// MappedBatchTransport: an engine decorator that rewrites server endpoints
// through a static map before delegating. Two uses:
//   - integration testing: point the pipeline's well-known resolver
//     addresses (1.1.1.1, 8.8.8.8, ...) at in-process loopback servers and
//     exercise the real socket path end-to-end;
//   - split-horizon deployments where a measurement vantage reaches the
//     resolvers through jump addresses.
// Unmapped endpoints either pass through or time out, per policy.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/query_batch.h"
#include "core/transport.h"

namespace dnslocate::core {

/// Rewrites every spec's endpoint through the map, delegates the rewritten
/// batch to the inner engine in one fan-out, and copies results back by
/// index. Unmapped endpoints pass through, or hermetically time out without
/// ever touching the wire.
///
/// It keeps its own telemetry, since the pipeline snapshots the outermost
/// transport. Only the hermetic timeouts it produces itself reach the
/// metrics registry from here; everything the inner engine ran, the inner
/// engine has already mirrored.
class MappedBatchTransport final : public QueryTransport, public AsyncQueryTransport {
 public:
  enum class UnmappedPolicy {
    pass_through,  // forward to the original endpoint
    timeout,       // swallow the query (hermetic test mode)
  };

  explicit MappedBatchTransport(AsyncQueryTransport& inner,
                                UnmappedPolicy policy = UnmappedPolicy::timeout)
      : inner_(inner), policy_(policy) {}

  /// Route queries for `from` to `to` instead. Port 0 in `from` matches any
  /// port on that address.
  void map(const netbase::Endpoint& from, const netbase::Endpoint& to) { mappings_[from] = to; }
  void map_address(const netbase::IpAddress& from, const netbase::Endpoint& to) {
    mappings_[netbase::Endpoint{from, 0}] = to;
  }

  void run(QueryBatch& batch) override {
    QueryBatch rewritten;
    std::vector<std::size_t> origin;  // rewritten slot -> original slot
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const QuerySpec& spec = batch.spec(i);
      if (auto target = resolve(spec.server)) {
        rewritten.add(*target, spec.message, spec.options);
        origin.push_back(i);
      } else if (policy_ == UnmappedPolicy::pass_through) {
        rewritten.add(spec.server, spec.message, spec.options);
        origin.push_back(i);
      } else {
        batch.result(i).retry.timeouts = 1;  // hermetic timeout, zero attempts
        record_telemetry(batch.result(i));
      }
    }
    const TransportTelemetry before = inner_transport().telemetry();
    inner_.run(rewritten);
    tally_delegated(inner_transport().telemetry() - before);
    for (std::size_t j = 0; j < rewritten.size(); ++j)
      batch.result(origin[j]) = std::move(rewritten.result(j));
    if (rewritten.drained()) batch.mark_drained();
  }

  [[nodiscard]] QueryTransport& transport() override { return *this; }

  [[nodiscard]] bool supports_family(netbase::IpFamily family) const override {
    return inner_transport().supports_family(family);
  }
  [[nodiscard]] bool supports_ttl() const override { return inner_transport().supports_ttl(); }
  [[nodiscard]] bool supports_channel(simnet::Channel channel) const override {
    return inner_transport().supports_channel(channel);
  }

 private:
  [[nodiscard]] std::optional<netbase::Endpoint> resolve(const netbase::Endpoint& server) const {
    if (auto it = mappings_.find(server); it != mappings_.end()) return it->second;
    if (auto it = mappings_.find(netbase::Endpoint{server.address, 0}); it != mappings_.end())
      return it->second;
    return std::nullopt;
  }

  // A reference member stays mutable inside const methods, so the inner
  // engine's (non-const) transport() is reachable for capability checks.
  [[nodiscard]] QueryTransport& inner_transport() const { return inner_.transport(); }

  AsyncQueryTransport& inner_;
  UnmappedPolicy policy_;
  std::unordered_map<netbase::Endpoint, netbase::Endpoint> mappings_;
};

}  // namespace dnslocate::core
