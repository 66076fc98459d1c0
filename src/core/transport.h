// QueryTransport: the capability and telemetry face of a query engine.
// Queries themselves go out through core::AsyncQueryTransport::run
// (core/query_batch.h), the single execution seam shared by the simulator
// (core/sim_transport.h) and real sockets (sockets/udp_engine.h) — matching
// the paper's claim that the technique "can be implemented on any device
// that can make DNS queries".
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/cancellation.h"
#include "core/retry.h"
#include "dnswire/message.h"
#include "netbase/endpoint.h"
#include "obs/metrics.h"
#include "simnet/packet.h"

namespace dnslocate::core {

/// Per-query knobs.
struct QueryOptions {
  std::chrono::milliseconds timeout{3000};
  /// IP TTL / hop limit override — used by the TTL-probing extension (§6
  /// future work). Transports that cannot set it report so via
  /// supports_ttl().
  std::optional<std::uint8_t> ttl;
  /// Transport channel. DoT channels model RFC 7858's strict and
  /// opportunistic privacy profiles; check supports_channel() first.
  simnet::Channel channel = simnet::Channel::udp;
  /// Retransmission policy. Defaults to single-shot: the technique treats
  /// timeouts as signal, so retries are an explicit opt-in.
  RetryPolicy retry;
  /// Cooperative cancellation: socket transports bound their waits (poll
  /// horizons, retry backoffs) by this token so a supervised probe can be
  /// stopped mid-query. Cancellation reports the query as timed out — it
  /// never fabricates an answer. The inert default never cancels.
  CancelToken cancel;
};

/// Per-query answer-arbitration evidence. The transports do not merely take
/// the first RFC 5452-valid response: they keep collecting for the rest of
/// the duplicate window and record everything that did not match the
/// accepted answer, so the classifier can tell a clean path from one where
/// an on-path injector raced the genuine resolver (Whac-A-Mole,
/// arXiv 2011.12978).
struct ArbitrationEvidence {
  /// Datagrams on the query's flow that decoded but failed RFC 5452
  /// acceptance (wrong ID, unechoed question, ...) or arrived from an
  /// endpoint other than the queried server: off-path injection attempts.
  std::uint64_t spoof_suspected = 0;
  /// Datagrams on the query's flow that did not decode as DNS at all.
  std::uint64_t malformed = 0;
  /// Accepted responses that semantically disagree with the first accepted
  /// answer (see core::responses_conflict in core/exchange.h): the probe's
  /// evidence is contested.
  std::uint64_t conflicts = 0;
  /// Accepted responses whose echoed question differed from the sent one
  /// byte-for-byte. RFC 5452 compares names case-insensitively, so these
  /// are accepted — but a mismatch means something in path re-wrote the
  /// 0x20 casing (a DPI ambiguity worth fingerprinting).
  std::uint64_t case_mismatches = 0;

  [[nodiscard]] bool contested() const { return conflicts > 0; }

  ArbitrationEvidence& operator+=(const ArbitrationEvidence& other) {
    spoof_suspected += other.spoof_suspected;
    malformed += other.malformed;
    conflicts += other.conflicts;
    case_mismatches += other.case_mismatches;
    return *this;
  }
};

/// Outcome of one query.
struct QueryResult {
  enum class Status { answered, timed_out };
  Status status = Status::timed_out;

  /// First response accepted (the one a stub resolver would use).
  std::optional<dnswire::Message> response;
  /// Every response observed before the timeout fired — more than one means
  /// query replication (§3.1).
  std::vector<dnswire::Message> all_responses;
  /// Time to the first response (meaningless for timeouts).
  std::chrono::microseconds rtt{0};
  /// Router that reported ICMP Time Exceeded for this query, if any —
  /// the raw material of traceroute-style interceptor localization.
  std::optional<netbase::IpAddress> icmp_from;
  /// How many attempts this query took and how many timed out.
  RetryTelemetry retry;
  /// What else arrived on this query's flow besides the accepted answer.
  ArbitrationEvidence arbitration;

  [[nodiscard]] bool answered() const { return status == Status::answered; }
  [[nodiscard]] bool replicated() const { return all_responses.size() > 1; }
  [[nodiscard]] bool contested() const { return arbitration.contested(); }
};

/// Running tally of transport activity, kept by every QueryTransport. The
/// pipeline snapshots it around a run to surface retry/timeout counts in
/// the probe verdict; the report layer aggregates them fleet-wide.
struct TransportTelemetry {
  std::uint64_t queries = 0;    // queries executed
  std::uint64_t attempts = 0;   // datagrams sent (>= queries with retries)
  std::uint64_t retries = 0;    // attempts beyond each query's first
  std::uint64_t timeouts = 0;   // attempts that ended in silence
  std::uint64_t answered = 0;   // queries that got an acceptable response
  // Arbitration tallies (see ArbitrationEvidence for semantics).
  std::uint64_t spoof_suspected = 0;  // rejected or wrong-source datagrams
  std::uint64_t malformed = 0;        // undecodable datagrams on query flows
  std::uint64_t conflicts = 0;        // accepted answers disagreeing
  std::uint64_t case_mismatches = 0;  // accepted answers with re-cased qname
  /// Responses that matched a transaction which had already completed or
  /// been cancelled: dropped, but counted so arbitration evidence is exact.
  std::uint64_t late_duplicates = 0;

  void note(const QueryResult& result) {
    ++queries;
    attempts += result.retry.attempts;
    retries += result.retry.retries();
    timeouts += result.retry.timeouts;
    if (result.answered()) ++answered;
    spoof_suspected += result.arbitration.spoof_suspected;
    malformed += result.arbitration.malformed;
    conflicts += result.arbitration.conflicts;
    case_mismatches += result.arbitration.case_mismatches;
  }

  TransportTelemetry& operator+=(const TransportTelemetry& other) {
    queries += other.queries;
    attempts += other.attempts;
    retries += other.retries;
    timeouts += other.timeouts;
    answered += other.answered;
    spoof_suspected += other.spoof_suspected;
    malformed += other.malformed;
    conflicts += other.conflicts;
    case_mismatches += other.case_mismatches;
    late_duplicates += other.late_duplicates;
    return *this;
  }

  friend TransportTelemetry operator-(TransportTelemetry a, const TransportTelemetry& b) {
    a.queries -= b.queries;
    a.attempts -= b.attempts;
    a.retries -= b.retries;
    a.timeouts -= b.timeouts;
    a.answered -= b.answered;
    a.spoof_suspected -= b.spoof_suspected;
    a.malformed -= b.malformed;
    a.conflicts -= b.conflicts;
    a.case_mismatches -= b.case_mismatches;
    a.late_duplicates -= b.late_duplicates;
    return a;
  }
};

/// Mirror one completed query onto the process-wide metrics registry. This
/// is the single seam every transport's record_telemetry passes through, so
/// the registry's transport_* totals agree exactly with the summed
/// TransportTelemetry structs the report layer aggregates. The RTT
/// histogram inherits the transport's clock: simulated time under
/// SimTransport, wall time under real sockets (see obs/clock.h).
inline void note_transport_metrics(const QueryResult& result) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& queries = obs::registry().counter("transport_queries_total");
  static obs::Counter& attempts = obs::registry().counter("transport_attempts_total");
  static obs::Counter& retries = obs::registry().counter("transport_retries_total");
  static obs::Counter& timeouts = obs::registry().counter("transport_timeouts_total");
  static obs::Counter& answered = obs::registry().counter("transport_answered_total");
  static obs::Histogram& rtt_us = obs::registry().histogram("transport_rtt_us");
  static obs::Counter& spoofs = obs::registry().counter("transport_spoof_suspected_total");
  static obs::Counter& malformed = obs::registry().counter("transport_malformed_total");
  static obs::Counter& conflicts = obs::registry().counter("transport_conflicts_total");
  static obs::Counter& recased = obs::registry().counter("transport_case_mismatches_total");
  queries.add_always(1);
  attempts.add_always(result.retry.attempts);
  retries.add_always(result.retry.retries());
  timeouts.add_always(result.retry.timeouts);
  if (result.answered()) {
    answered.add_always(1);
    rtt_us.record_always(static_cast<std::uint64_t>(result.rtt.count()));
  }
  if (result.arbitration.spoof_suspected != 0) spoofs.add_always(result.arbitration.spoof_suspected);
  if (result.arbitration.malformed != 0) malformed.add_always(result.arbitration.malformed);
  if (result.arbitration.conflicts != 0) conflicts.add_always(result.arbitration.conflicts);
  if (result.arbitration.case_mismatches != 0)
    recased.add_always(result.arbitration.case_mismatches);
}

/// Mirror one dropped late/spoofed datagram (a response for a transaction
/// that already completed or was cancelled) onto the metrics registry.
inline void note_late_duplicate_metric() {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& late = obs::registry().counter("transport_late_duplicates_total");
  late.add_always(1);
}

/// What an engine can reach, and what it has done so far. Every engine
/// exposes one through AsyncQueryTransport::transport(); stages consult the
/// capability checks while building a batch, and the pipeline snapshots the
/// telemetry around a run.
class QueryTransport {
 public:
  virtual ~QueryTransport() = default;

  /// Cumulative telemetry since construction (or reset_telemetry()).
  /// Implementations record each completed query via record_telemetry().
  [[nodiscard]] const TransportTelemetry& telemetry() const { return telemetry_; }
  void reset_telemetry() { telemetry_ = TransportTelemetry{}; }

  /// Whether this transport can reach the given family at all.
  [[nodiscard]] virtual bool supports_family(netbase::IpFamily family) const = 0;

  /// Whether QueryOptions::ttl is honoured.
  [[nodiscard]] virtual bool supports_ttl() const { return false; }

  /// Whether the given channel can be used. Plain UDP is universal; DoT is
  /// currently offered by the simulated transport only.
  [[nodiscard]] virtual bool supports_channel(simnet::Channel channel) const {
    return channel == simnet::Channel::udp;
  }

 protected:
  /// Tally a query this transport executed itself, and mirror it onto the
  /// metrics registry.
  void record_telemetry(const QueryResult& result) {
    telemetry_.note(result);
    note_transport_metrics(result);
  }

  /// Fold in the telemetry an inner engine accrued on this decorator's
  /// behalf. The inner engine already mirrored it onto the registry, so a
  /// decorator keeps its own per-instance view without counting twice.
  void tally_delegated(const TransportTelemetry& delta) { telemetry_ += delta; }

  /// Count a response that arrived for an already-finished transaction.
  /// Not tied to a QueryResult: the result was recorded when the
  /// transaction completed, so late arrivals are tallied transport-wide.
  void record_late_duplicate() {
    ++telemetry_.late_duplicates;
    note_late_duplicate_metric();
  }

 private:
  TransportTelemetry telemetry_;
};

}  // namespace dnslocate::core
