// SimTransport: runs the localization client on a simulated host.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/exchange.h"
#include "core/query_batch.h"
#include "core/transport.h"
#include "obs/clock.h"
#include "simnet/simulator.h"

namespace dnslocate::core {

/// Observability clock driven by a simulator: spans and histograms recorded
/// under it carry simulated nanoseconds, so traces replay bit-identically
/// across runs and hosts.
class SimulatorClock final : public obs::ClockSource {
 public:
  explicit SimulatorClock(const simnet::Simulator& sim) : sim_(sim) {}
  [[nodiscard]] std::uint64_t now_ns() const override {
    return static_cast<std::uint64_t>(sim_.now().count());
  }

 private:
  const simnet::Simulator& sim_;
};

/// A query engine backed by a simnet host device. Each query runs through
/// the shared exchange kernel (core/exchange.h) over a simulated channel
/// that binds a fresh ephemeral port per attempt, injects the datagram, and
/// drives the simulator until the timeout horizon passes (so replicated
/// duplicates are captured deterministically).
class SimTransport : public QueryTransport, public AsyncQueryTransport {
 public:
  /// `host` is the measurement device (the RIPE-Atlas-probe stand-in).
  /// It must already be wired into a topology with a default route.
  SimTransport(simnet::Simulator& sim, simnet::Device& host);

  /// Deterministic batch path: one simulator cascade per query, in strict
  /// submission order within a single run() call. Overlapping queries in
  /// simulated time would interleave draws on the simulator's shared RNG
  /// stream and permute traces; running them back-to-back keeps verdicts
  /// and traces byte-identical to the historical one-query-at-a-time loop
  /// (pinned by tests/golden/scenario_signatures.txt), and simulated waits
  /// cost no wall-clock, so nothing is lost by not overlapping.
  void run(QueryBatch& batch) override;

  [[nodiscard]] QueryTransport& transport() override { return *this; }

  [[nodiscard]] bool supports_family(netbase::IpFamily family) const override;
  [[nodiscard]] bool supports_ttl() const override { return true; }
  [[nodiscard]] bool supports_channel(simnet::Channel) const override { return true; }

  /// Datagrams sent, counting every retry attempt.
  [[nodiscard]] std::uint64_t queries_sent() const { return queries_sent_; }

 private:
  QueryResult query(const netbase::Endpoint& server, const dnswire::Message& message,
                    const QueryOptions& options);

  simnet::Simulator& sim_;
  simnet::Device& host_;
  std::uint16_t next_port_ = 40000;
  std::uint64_t queries_sent_ = 0;
  /// Inbound-slot pool lent to the per-query exchange channel. Slots (and
  /// their payload capacity) persist across queries, so the steady-state
  /// datagram path allocates nothing.
  std::vector<ExchangeChannel::Inbound> inbound_pool_;
};

}  // namespace dnslocate::core
