// DNS over TCP (RFC 7766): the transport clients fall back to when a UDP
// response comes back truncated (TC=1). One connection per query — the
// simple, correct behaviour for a measurement tool.
#pragma once

#include <chrono>

#include "core/query_batch.h"

namespace dnslocate::sockets {

/// Plain TCP DNS transport with 2-octet length framing. Runs through the
/// shared exchange kernel (core/exchange.h), so TCP answers get the same
/// RFC 5452 acceptance, duplicate-window continuation, and arbitration
/// evidence (spoofed IDs, conflicting follow-up frames, 0x20 rewrites) as
/// every other channel — a stream is harder to inject into than a datagram
/// flow, but an in-path middlebox terminates it just as easily.
class TcpTransport : public core::SequentialTransport {
 public:
  struct Config {
    /// Keep reading follow-up frames (a pipelining server or an in-path
    /// rewriter can send more than one) for this long after the first
    /// accepted answer. A server that closes the connection ends the
    /// window immediately, so the common case pays nothing.
    std::chrono::milliseconds duplicate_window{200};
    /// Default retry policy for queries whose QueryOptions carry none.
    /// Single-shot by default: each retry attempt is a fresh connection
    /// with a re-randomized query.
    core::RetryPolicy retry;
  };

  TcpTransport() = default;
  explicit TcpTransport(Config config) : config_(config) {}

  [[nodiscard]] bool supports_family(netbase::IpFamily family) const override;

 protected:
  core::QueryResult query(const netbase::Endpoint& server, const dnswire::Message& message,
                          const core::QueryOptions& options) override;

 private:
  Config config_;
};

/// UDP-first transport with automatic TCP retry when the UDP answer is
/// truncated — what a stub resolver actually does. The localization
/// pipeline itself never needs this (its answers are small), but tools
/// built on the library do. Its telemetry counts every leg it ran (the UDP
/// query, plus the TCP retry when there was one); the legs' engines mirror
/// them onto the metrics registry.
class FallbackTransport : public core::SequentialTransport {
 public:
  FallbackTransport(core::AsyncQueryTransport& udp, core::AsyncQueryTransport& tcp)
      : udp_(udp), tcp_(tcp) {}

  [[nodiscard]] bool supports_family(netbase::IpFamily family) const override {
    return udp_.transport().supports_family(family);
  }
  [[nodiscard]] bool supports_ttl() const override { return udp_.transport().supports_ttl(); }

  [[nodiscard]] std::uint64_t tcp_retries() const { return tcp_retries_; }

 protected:
  core::QueryResult query(const netbase::Endpoint& server, const dnswire::Message& message,
                          const core::QueryOptions& options) override;

 private:
  core::AsyncQueryTransport& udp_;
  core::AsyncQueryTransport& tcp_;
  std::uint64_t tcp_retries_ = 0;
};

}  // namespace dnslocate::sockets
