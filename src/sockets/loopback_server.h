// An in-process UDP DNS server bound to 127.0.0.1, serving the simulator's
// DnsResponder behaviours through its server turn (resolvers::serve_query).
// Lets the socket transport and the full pipeline be exercised end-to-end
// over real sockets in tests, with no network access.
#pragma once

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "netbase/endpoint.h"
#include "dnswire/encoder.h"
#include "resolvers/server_app.h"

namespace dnslocate::sockets {

class LoopbackDnsServer {
 public:
  /// Binds 127.0.0.1 on an OS-assigned port and serves `responder` on a
  /// background thread until destruction. With `serve_tcp`, also listens on
  /// the same port number over TCP (RFC 7766 framing). Throws
  /// std::runtime_error when a socket cannot be created.
  ///
  /// `response_delay` holds each UDP answer back by that duration without
  /// blocking the serve loop (deferred-send queue): the server keeps
  /// ingesting queries while answers are pending, so concurrent clients see
  /// realistic overlapping round-trip latency rather than head-of-line
  /// serialization.
  explicit LoopbackDnsServer(std::shared_ptr<resolvers::DnsResponder> responder,
                             bool serve_tcp = false,
                             std::chrono::milliseconds response_delay = {});
  ~LoopbackDnsServer();

  LoopbackDnsServer(const LoopbackDnsServer&) = delete;
  LoopbackDnsServer& operator=(const LoopbackDnsServer&) = delete;

  /// Where to send queries.
  [[nodiscard]] netbase::Endpoint endpoint() const { return endpoint_; }

  [[nodiscard]] std::uint64_t queries_served() const { return queries_served_.load(); }
  [[nodiscard]] std::uint64_t tcp_queries_served() const { return tcp_queries_served_.load(); }

 private:
  /// A UDP answer waiting out the configured response delay.
  struct PendingSend {
    std::chrono::steady_clock::time_point due;
    dnswire::WireBuffer wire;
    sockaddr_storage to;
    socklen_t to_len;
  };

  void serve();
  void serve_udp_datagram();
  void serve_tcp_connection();
  void flush_due_sends();

  // Concurrency model: no mutex on purpose. All mutable state below is
  // either confined to the serve thread (fds, pending_) or an atomic
  // crossed by the owner thread (running_ to stop, the served counters to
  // read) — so there is no capability to annotate and nothing for the
  // thread-safety analysis to check. Adding shared state here means
  // introducing a netbase::Mutex and DNSLOCATE_GUARDED_BY first (R9
  // polices src/sockets/).
  std::shared_ptr<resolvers::DnsResponder> responder_;
  int fd_ = -1;
  int tcp_fd_ = -1;
  netbase::Endpoint endpoint_;
  std::chrono::milliseconds response_delay_{0};
  std::deque<PendingSend> pending_;  // serve-thread only; due times ascend
  std::atomic<bool> running_{true};
  std::atomic<std::uint64_t> queries_served_{0};
  std::atomic<std::uint64_t> tcp_queries_served_{0};
  std::thread thread_;
};

}  // namespace dnslocate::sockets
