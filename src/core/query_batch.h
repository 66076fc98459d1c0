// Batched asynchronous query execution.
//
// Every pipeline stage describes its measurement as a *query set* — a
// QueryBatch of (server, message, options) triples built up front — and an
// engine executes the whole set, collecting results as they complete. The
// stage then interprets results by index, never by arrival order, so the
// same declarative plan produces the same report whether the engine ran the
// queries one at a time (a SequentialTransport, or sockets::UdpEngine with
// max_inflight = 1) or kept them all in flight at once (sockets::UdpEngine
// over a shared socket pair). That separation is what turns a probe's wall
// clock from the *sum* of its query timeouts into the *max* on real
// networks, while the simulated path stays byte-identical to the historical
// sequential loops (see docs/ARCHITECTURE.md, "Query engine").
#pragma once

#include <cstdint>

#include "core/transport.h"
#include "netbase/small_vector.h"
#include "simnet/rng.h"

namespace dnslocate::core {

/// Fresh 16-bit transaction ID from a seeded stream. Stage builders draw
/// every ID from a per-stage `simnet::Rng` at batch-build time, so IDs are
/// unpredictable to an off-path spoofer (the paper's hard-to-spoof
/// requirement) yet replay bit-identically from the probe seed — and, being
/// fixed before execution, are identical under every engine.
[[nodiscard]] inline std::uint16_t random_query_id(simnet::Rng& rng) {
  return static_cast<std::uint16_t>(rng.next_u64() & 0xffff);
}

/// One query of a batch: everything needed to send it, fixed at build time.
/// Transaction IDs (and any 0x20 case pattern) are already in `message`, so
/// two engines executing the same batch put identical datagrams on the wire.
struct QuerySpec {
  netbase::Endpoint server;
  dnswire::Message message;
  QueryOptions options;
};

/// A set of queries submitted together, with a result slot per query.
/// Results are correlated by index — arrival order is an engine detail.
/// The first query and its result live inline, so a batch of one
/// (core::query_one) allocates nothing.
class QueryBatch {
 public:
  /// Append a query; returns its index (the slot its result lands in).
  std::size_t add(const netbase::Endpoint& server, dnswire::Message message,
                  const QueryOptions& options = {}) {
    specs_.emplace_back(server, std::move(message), options);
    results_.emplace_back();
    return specs_.size() - 1;
  }

  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] bool empty() const { return specs_.empty(); }

  [[nodiscard]] const QuerySpec& spec(std::size_t index) const { return specs_[index]; }

  [[nodiscard]] QueryResult& result(std::size_t index) { return results_[index]; }
  [[nodiscard]] const QueryResult& result(std::size_t index) const { return results_[index]; }

  /// Engines set this when cancellation cut the batch short: some queries
  /// were abandoned in flight (reported as timeouts) or never sent at all.
  /// A drained batch is honest about what it observed but incomplete — the
  /// pipeline marks the owning stage skipped and claims nothing from it
  /// beyond what completed queries actually showed.
  void mark_drained() { drained_ = true; }
  [[nodiscard]] bool drained() const { return drained_; }

 private:
  netbase::SmallVector<QuerySpec, 1> specs_;
  netbase::SmallVector<QueryResult, 1> results_;
  bool drained_ = false;
};

/// An engine that can execute a whole QueryBatch: the one query-execution
/// interface every measurement stage and the pipeline take. Implementations
/// are free to overlap queries arbitrarily; they must fill every result slot
/// before returning and record per-query telemetry on their transport().
class AsyncQueryTransport {
 public:
  virtual ~AsyncQueryTransport() = default;

  /// Execute every query in `batch`, filling `batch.result(i)` for all i.
  virtual void run(QueryBatch& batch) = 0;

  /// The seam for capability checks (supports_family, supports_channel) and
  /// cumulative telemetry.
  [[nodiscard]] virtual QueryTransport& transport() = 0;
};

/// Send one query through `engine`: a batch of one.
QueryResult query_one(AsyncQueryTransport& engine, const netbase::Endpoint& server,
                      const dnswire::Message& message, const QueryOptions& options = {});

/// Base for engines that execute one query at a time (TCP, the UDP-then-TCP
/// fallback, test doubles): run() calls query() for each spec in submission
/// order. It never marks the batch drained — per-query cancellation
/// semantics are the subclass's.
class SequentialTransport : public QueryTransport, public AsyncQueryTransport {
 public:
  void run(QueryBatch& batch) override;

  [[nodiscard]] QueryTransport& transport() override { return *this; }

 protected:
  /// Execute one query and record its telemetry.
  virtual QueryResult query(const netbase::Endpoint& server, const dnswire::Message& message,
                            const QueryOptions& options) = 0;
};

/// Mirror one executed batch onto the metrics registry: run count, size and
/// latency distributions, drain count, and the high-water in-flight gauge.
/// Engines call this once per run(); latency is read off the thread's obs
/// clock, so simulated batches record simulated nanoseconds.
void note_batch_metrics(std::size_t queries, std::uint64_t latency_ns, std::size_t max_inflight,
                        bool drained);

}  // namespace dnslocate::core
