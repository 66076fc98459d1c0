// The exchange kernel: the single implementation of the per-query attempt
// timeline, answer acceptance, and spoof arbitration, shared by every
// transport.
//
// The paper's verdicts are only as trustworthy as the answer-acceptance
// rules and the account of how each query ended (§3.3 reads silence as
// evidence). Before this seam existed those rules — RFC 5452 source/ID
// matching, 0x20 comparison, duplicate-window listening, retry
// re-randomization, conflict arbitration (Whac-A-Mole, arXiv 2011.12978) —
// were re-implemented per transport. Now there is exactly one copy:
//
//   * Exchange is one query's attempt timeline, free of I/O (retry budget,
//     backoff, re-roll, deadlines, duplicate window, cancellation). It owns
//     an ExchangeLedger, the acceptance/arbitration state machine.
//   * Two drivers: run_exchange() over an ExchangeChannel (SimTransport and
//     TcpTransport are thin channels), and UdpEngine, one Exchange per
//     batch slot driven from its timer wheel and shared-socket demux.
//
// dnslint's single-acceptance-seam rule enforces the monopoly: transaction-
// ID acceptance, duplicate fingerprinting, 0x20 comparison, backoff
// arithmetic or retry re-randomization outside these files (and the
// RetryPolicy that defines the last two) fails lint.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "core/cancellation.h"
#include "core/retry.h"
#include "core/transport.h"
#include "dnswire/message.h"
#include "netbase/endpoint.h"
#include "simnet/rng.h"

namespace dnslocate::core {

// ---------------------------------------------------------------------------
// Shared predicates (the one copy of each).

/// FNV-1a over a datagram payload, used to recognise byte-identical
/// duplicates: a copy of an accepted response from the same source is
/// network duplication (or a fault-injected clone), not query replication —
/// a real stub cannot tell the two packets apart either.
[[nodiscard]] std::uint64_t payload_fingerprint(const std::uint8_t* data, std::size_t size);

/// RFC 5452 answer acceptance: QR bit, transaction ID, opcode, and the
/// echoed question (type/class equal, name compared case-insensitively so a
/// 0x20-folded echo still matches). The single call site for the dnswire
/// predicate outside its definition.
[[nodiscard]] bool response_acceptable(const dnswire::Message& sent,
                                       const dnswire::Message& response);

/// Do two accepted responses to the same transaction disagree in a way a
/// stub resolver would care about? Compares the response code, the
/// truncation bit, and the answer section; additional-section or
/// compression differences are not conflicts. Byte-identical duplicates
/// never reach this check — the ledger deduplicates them first.
[[nodiscard]] bool responses_conflict(const dnswire::Message& a, const dnswire::Message& b);

/// Granularity at which wall-clock waits (socket polls, backoff sleeps)
/// re-check a manually cancellable token. A deadline token needs no
/// polling: it caps the wait horizon directly.
inline constexpr std::chrono::milliseconds kCancelPollSlice{50};

// ---------------------------------------------------------------------------
// Source identity.

/// Opaque response-source identity: equality is all acceptance and dedup
/// need, so each channel encodes its native address form injectively into a
/// small inline buffer (the largest native form, a sockaddr_in6, is 28
/// bytes). Building and comparing keys never allocates, which keeps the
/// kernel's per-datagram path allocation-free.
struct SourceKey {
  std::array<std::uint8_t, 32> bytes{};
  std::uint8_t size = 0;

  friend bool operator==(const SourceKey& a, const SourceKey& b) {
    return a.size == b.size && std::memcmp(a.bytes.data(), b.bytes.data(), a.size) == 0;
  }
};

/// Key for a simulated/native endpoint (family tag + address bytes + port).
[[nodiscard]] SourceKey source_key_from(const netbase::Endpoint& endpoint);

/// Key for a kernel-filled sockaddr (the raw bytes, as recvfrom wrote them).
[[nodiscard]] SourceKey source_key_from(const std::uint8_t* sockaddr_bytes, std::size_t size);

// ---------------------------------------------------------------------------
// Per-query arbitration ledger.

/// The acceptance/arbitration state machine for one query, owned by its
/// Exchange. It persists across retry attempts — a failed attempt
/// contributes no accepted responses, so one continuous ledger is equivalent
/// to per-attempt ledgers summed, and ICMP evidence keeps the last
/// reporting attempt's router.
class ExchangeLedger {
 public:
  /// What deliver() did with an acceptable response.
  enum class Disposition {
    duplicate,  // byte-identical to an already-seen response: dropped
    accepted,   // first accepted answer — the caller opens a duplicate window
    followup,   // kept in all_responses; conflicts were tallied if it disagreed
  };

  [[nodiscard]] QueryResult& result() { return result_; }
  [[nodiscard]] const QueryResult& result() const { return result_; }

  /// A datagram on the query's flow that did not decode as DNS at all.
  void note_malformed() { ++result_.arbitration.malformed; }

  /// A decodable datagram that failed RFC 5452 acceptance or arrived from
  /// an endpoint other than the queried server: off-path injection evidence.
  void note_spoof() { ++result_.arbitration.spoof_suspected; }

  /// Start a new attempt: the first ICMP report of each attempt wins, and a
  /// later attempt's report replaces an earlier attempt's.
  void begin_attempt() { icmp_seen_this_attempt_ = false; }

  /// ICMP Time Exceeded quoting this query's attempt: record the reporting
  /// router (first report per attempt; later attempts supersede).
  void note_icmp(const netbase::IpAddress& router) {
    if (icmp_seen_this_attempt_) return;
    icmp_seen_this_attempt_ = true;
    result_.icmp_from = router;
  }

  /// Arbitrate one response that already passed the source and RFC 5452
  /// checks: dedup against (source, fingerprint), tally a 0x20 case rewrite
  /// of the echoed question, then either accept it as THE answer (recording
  /// `rtt`) or keep it as a follow-up — counting a conflict when it
  /// semantically disagrees with the accepted one.
  Disposition deliver(const dnswire::Message& sent, dnswire::Message&& response,
                      SourceKey source, std::uint64_t fingerprint,
                      std::chrono::microseconds rtt);

 private:
  QueryResult result_;
  /// (source, payload fingerprint) of every accepted response.
  std::vector<std::pair<SourceKey, std::uint64_t>> seen_;
  bool icmp_seen_this_attempt_ = false;
};

// ---------------------------------------------------------------------------
// The channel seam.

/// The minimal medium interface run_exchange() needs: a clock, a way to put
/// an attempt on the wire, a way to take the next inbound datagram off it,
/// and a backoff wait. Implementations are small: the simulated channel
/// steps the simulator, the TCP channel reads length-framed messages off a
/// connection.
class ExchangeChannel {
 public:
  /// One inbound unit on the attempt's flow. The channel moves bytes and
  /// states where they came from; all judgement happens in the kernel.
  struct Inbound {
    enum class Kind { datagram, icmp_ttl_exceeded };
    Kind kind = Kind::datagram;
    /// Wire bytes: a DNS message, or the quoted query inside an ICMP error.
    std::vector<std::uint8_t> payload;
    /// Whether the source is the queried endpoint (channels compare in
    /// their native address form; legitimate diverted replies are
    /// conntrack-rewritten back to the queried endpoint before they reach
    /// us, so anything else is wrong-egress injection).
    bool source_matches = false;
    /// Source identity for byte-identical dedup.
    SourceKey source;
    /// Router that reported the ICMP error (icmp_ttl_exceeded only).
    std::optional<netbase::IpAddress> icmp_from;
  };

  virtual ~ExchangeChannel() = default;

  /// Monotonic now, in nanoseconds. Simulated channels report simulated
  /// time; wall-clock channels report steady_clock::now().time_since_epoch()
  /// (the kernel caps deadlines with CancelToken::deadline(), which is
  /// steady_clock-based, so real channels must share that epoch).
  [[nodiscard]] virtual std::chrono::nanoseconds now() = 0;

  /// Acquire per-attempt resources and put `attempt` on the wire.
  /// `deadline` is absolute (same clock as now()). Returns false when the
  /// attempt could not be sent at all — the kernel burns the attempt as an
  /// immediate timeout, exactly like a silent network.
  virtual bool begin_attempt_and_send(const dnswire::Message& attempt,
                                      std::chrono::nanoseconds deadline) = 0;

  /// Block (or step simulated time) until the next inbound unit on the
  /// attempt's flow, the `horizon` passes, the stream ends, or `cancel`
  /// fires — nullptr for everything but a delivery. The returned Inbound is
  /// owned by the channel and valid only until the next receive() or
  /// end_attempt() call, so channels reuse the same slots (and their payload
  /// capacity) across deliveries instead of allocating per datagram.
  virtual Inbound* receive(std::chrono::nanoseconds horizon, const CancelToken& cancel) = 0;

  /// Release per-attempt resources (unbind the port, close the fd).
  virtual void end_attempt() = 0;

  /// Wait out the backoff before a retry attempt; false = cancelled mid-wait
  /// (the kernel then abandons the remaining attempts).
  virtual bool wait_backoff(std::chrono::milliseconds backoff, const CancelToken& cancel) = 0;
};

// ---------------------------------------------------------------------------
// The attempt timeline.

/// Per-exchange policy resolved by the transport from its own defaults.
struct ExchangePolicy {
  /// The transport's default retry policy; a query whose
  /// QueryOptions::retry is enabled runs that one instead.
  RetryPolicy retry;
  /// How long to keep collecting after the first accepted answer. nullopt =
  /// collect to the full attempt timeout (the simulated transport's
  /// behaviour: simulated waits cost no wall-clock, so the whole window is
  /// always observed).
  std::optional<std::chrono::milliseconds> duplicate_window;
  /// Whether the timeline honours QueryOptions::cancel (wall-clock
  /// transports). The simulated transport runs in simulated time where the
  /// wall-clock budget is meaningless, so it opts out.
  bool honour_cancellation = true;
};

/// One query's attempt timeline, free of I/O. Times are absolute, on the
/// driver's clock (simulated time, or steady_clock since its epoch, which
/// CancelToken deadlines share).
///
///   ready ──begin_attempt──► waiting ──first accept──► collecting
///     ▲                        │ expiry                     │ expiry
///     │                        ▼                            ▼
///     └─────expiry───── backing_off      (budget spent) ──► done
///
/// A cancellation moves any phase to done; only an answer survives it. A
/// retry re-rolls in begin_attempt(), after the backoff, so a simulator's
/// shared stream is drawn in event order.
class Exchange {
 public:
  enum class Phase { ready, waiting, collecting, backing_off, done };

  /// `options` must outlive the exchange. Retries re-roll from `shared_rng`
  /// (the simulator's stream), else from the exchange's own stream keyed by
  /// the original ID, so scheduling never changes a retry's ID or 0x20 case.
  Exchange(const dnswire::Message& message, const QueryOptions& options,
           const ExchangePolicy& policy, simnet::Rng* shared_rng = nullptr);

  [[nodiscard]] Phase phase() const { return phase_; }
  /// An attempt is on the wire: datagrams on its flow belong to it.
  [[nodiscard]] bool on_wire() const {
    return phase_ == Phase::waiting || phase_ == Phase::collecting;
  }
  /// What the current attempt carries (its ID and 0x20 pattern).
  [[nodiscard]] const dnswire::Message& message() const { return message_; }
  [[nodiscard]] ExchangeLedger& ledger() { return ledger_; }
  /// When on_expiry() is due: the attempt deadline (capped by a cancel
  /// deadline), the end of the duplicate window, or the end of the backoff.
  [[nodiscard]] std::chrono::nanoseconds wake_at() const { return wake_at_; }
  /// The query's token fired and this exchange honours it.
  [[nodiscard]] bool cancelled() const {
    return honour_cancellation_ && options_->cancel.cancelled();
  }

  /// ready → waiting: open the next attempt at `now`, or, when the token
  /// has fired, go to done and return false (nothing is to be sent).
  bool begin_attempt(std::chrono::nanoseconds now);
  /// The attempt's time is up: wake_at() passed, the medium ended its flow
  /// early (a TCP peer close), or it could not be sent at all. waiting: a
  /// timeout, then backing_off or done; collecting: done with the answer;
  /// backing_off: ready.
  void on_expiry(std::chrono::nanoseconds now);
  /// The token fired: done. A waiting attempt counts as a timeout; an
  /// answer already collected is kept.
  void on_cancel();
  /// Judge one inbound unit on the attempt's only flow: ICMP quoting the
  /// attempt, debris, spoof evidence, or a response to deliver().
  void on_inbound(const ExchangeChannel::Inbound& inbound, std::chrono::nanoseconds now);
  /// Arbitrate a response already pinned to this attempt (source and
  /// RFC 5452 checks passed); the first accept opens the duplicate window.
  ExchangeLedger::Disposition deliver(dnswire::Message&& response, SourceKey source,
                                      std::uint64_t fingerprint,
                                      std::chrono::nanoseconds now);
  /// The finished result with retry telemetry attached (moved out).
  [[nodiscard]] QueryResult finish();

 private:
  const QueryOptions* options_;
  RetryPolicy retry_;
  std::optional<std::chrono::milliseconds> duplicate_window_;
  bool honour_cancellation_;
  simnet::Rng* shared_rng_;
  simnet::Rng own_rng_;

  Phase phase_ = Phase::ready;
  unsigned attempt_ = 0;  // attempts begun so far
  dnswire::Message message_;
  std::chrono::nanoseconds sent_at_{0};
  std::chrono::nanoseconds deadline_{0};
  std::chrono::nanoseconds wake_at_{0};
  ExchangeLedger ledger_;
  RetryTelemetry telemetry_;
};

/// Run one query over `channel`: drive one Exchange, with a
/// `transport/attempt` span per attempt. The calling engine records
/// transport telemetry (QueryTransport::record_telemetry).
[[nodiscard]] QueryResult run_exchange(ExchangeChannel& channel, const dnswire::Message& message,
                                       const QueryOptions& options, const ExchangePolicy& policy,
                                       simnet::Rng* shared_rng = nullptr);

}  // namespace dnslocate::core
