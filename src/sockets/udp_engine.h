// Event-driven batched query engine over real POSIX UDP sockets: the
// library's one real-network UDP path.
//
// UdpEngine multiplexes every in-flight query of a batch over ONE shared
// non-blocking socket per address family. Responses are demultiplexed by
// (server endpoint, transaction ID, 0x20-encoded question name) — the same
// acceptance predicate RFC 5452 prescribes and dnswire::is_acceptable_response
// implements — and every per-query deadline (attempt timeout, retry backoff,
// duplicate-collection window) lives on a timer wheel driven from a single
// poll() loop. A probe's wall clock becomes the max of its query timelines
// instead of their sum.
//
// Each query's timeline is a core::Exchange (core/exchange.h), the same
// attempt machine run_exchange() drives for the simulated and TCP
// transports: retry budget, backoff, fresh-ID + 0x20 re-roll, per-attempt
// deadline, duplicate window and cancellation are decided there. The engine
// keeps what is its own: admission, the timer wheel, the sockets, and the
// multi-candidate demux that pins a datagram to one exchange.
//
// "Blocking" execution is this engine with Config::max_inflight = 1: one
// query at a time, each running through its attempts, backoffs and
// duplicate window before the next is sent. Only the scheduling differs;
// the timeline of every query (abandoned queries report timeouts, answers
// are never fabricated) is the same at every admission cap.
#pragma once

#include <chrono>

#include "core/query_batch.h"
#include "core/transport.h"

namespace dnslocate::sockets {

class UdpEngine : public core::QueryTransport, public core::AsyncQueryTransport {
 public:
  struct Config {
    /// Collect duplicate responses (query replication) for this long after
    /// a query's first response arrives.
    std::chrono::milliseconds duplicate_window{200};
    /// Default retry policy for queries whose QueryOptions carry none.
    core::RetryPolicy retry;
    /// Admission cap: queries beyond this many stay queued until a slot
    /// frees. A query holds its slot from its first send until it
    /// completes, retries and backoffs included, so 1 runs the batch
    /// strictly one query at a time. Bounds socket buffer pressure and
    /// burst size on the wire.
    std::size_t max_inflight = 64;
  };

  UdpEngine() = default;
  explicit UdpEngine(Config config) : config_(config) {}

  /// Execute the whole batch in one poll() loop, all queries in flight
  /// together (up to max_inflight).
  void run(core::QueryBatch& batch) override;

  [[nodiscard]] core::QueryTransport& transport() override { return *this; }

  [[nodiscard]] bool supports_family(netbase::IpFamily family) const override;
  [[nodiscard]] bool supports_ttl() const override { return true; }

 private:
  Config config_;
};

}  // namespace dnslocate::sockets
