#include "core/exchange.h"

#include <algorithm>

#include "dnswire/decoder.h"
#include "dnswire/view.h"
#include "obs/span.h"

namespace dnslocate::core {
namespace {

/// Base seed of an exchange's own re-roll stream; each stream is keyed by
/// the query's original transaction ID (seed ^ id << 32).
constexpr std::uint64_t kRerollSeed = 0x5eed5eed;

}  // namespace

std::uint64_t payload_fingerprint(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) h = (h ^ data[i]) * 0x100000001b3ull;
  return h;
}

bool response_acceptable(const dnswire::Message& sent, const dnswire::Message& response) {
  return dnswire::is_acceptable_response(sent, response);
}

bool responses_conflict(const dnswire::Message& a, const dnswire::Message& b) {
  return a.rcode() != b.rcode() || a.flags.tc != b.flags.tc || a.answers != b.answers;
}

SourceKey source_key_from(const netbase::Endpoint& endpoint) {
  SourceKey key;
  if (endpoint.address.is_v4()) {
    key.bytes[0] = 4;
    auto bytes = endpoint.address.v4().to_bytes();
    std::copy(bytes.begin(), bytes.end(), key.bytes.begin() + 1);
    key.size = 1 + 4;
  } else {
    key.bytes[0] = 6;
    const auto& bytes = endpoint.address.v6().bytes();
    std::copy(bytes.begin(), bytes.end(), key.bytes.begin() + 1);
    key.size = 1 + 16;
  }
  key.bytes[key.size++] = static_cast<std::uint8_t>(endpoint.port >> 8);
  key.bytes[key.size++] = static_cast<std::uint8_t>(endpoint.port & 0xff);
  return key;
}

SourceKey source_key_from(const std::uint8_t* sockaddr_bytes, std::size_t size) {
  SourceKey key;
  // Real sockaddr forms fit (sockaddr_in6 is 28 bytes); clamp defensively so
  // a malformed length can never overflow the inline buffer.
  key.size = static_cast<std::uint8_t>(std::min(size, key.bytes.size()));
  std::copy(sockaddr_bytes, sockaddr_bytes + key.size, key.bytes.begin());
  return key;
}

ExchangeLedger::Disposition ExchangeLedger::deliver(const dnswire::Message& sent,
                                                    dnswire::Message&& response,
                                                    SourceKey source,
                                                    std::uint64_t fingerprint,
                                                    std::chrono::microseconds rtt) {
  for (const auto& [src, hash] : seen_)
    if (hash == fingerprint && src == source) return Disposition::duplicate;
  seen_.emplace_back(source, fingerprint);

  // RFC 5452 accepts a case-folded question echo; record the rewrite as
  // evidence (a DPI middlebox ambiguity — see simnet/adversary.h).
  if (const auto* echoed = response.question())
    if (const auto* asked = sent.question())
      if (!(echoed->name == asked->name)) ++result_.arbitration.case_mismatches;

  if (!result_.answered()) {
    result_.status = QueryResult::Status::answered;
    result_.response = response;
    result_.rtt = rtt;
    result_.all_responses.push_back(std::move(response));
    return Disposition::accepted;
  }
  if (responses_conflict(*result_.response, response)) {
    // The duplicate window stayed open and a semantically different answer
    // raced in: the transaction is contested, and both answers are kept in
    // all_responses for the classifier to arbitrate.
    ++result_.arbitration.conflicts;
  }
  result_.all_responses.push_back(std::move(response));
  return Disposition::followup;
}

Exchange::Exchange(const dnswire::Message& message, const QueryOptions& options,
                   const ExchangePolicy& policy, simnet::Rng* shared_rng)
    : options_(&options),
      // Per-query options win; the transport-level default applies otherwise.
      retry_(options.retry.enabled() ? options.retry : policy.retry),
      duplicate_window_(policy.duplicate_window),
      honour_cancellation_(policy.honour_cancellation),
      shared_rng_(shared_rng),
      own_rng_(kRerollSeed ^ (static_cast<std::uint64_t>(message.id) << 32)),
      message_(message) {}

bool Exchange::begin_attempt(std::chrono::nanoseconds now) {
  if (cancelled()) {
    on_cancel();
    return false;
  }
  // Fresh transaction ID (and 0x20 pattern) per retry: a straggling response
  // to an earlier attempt fails the ID check instead of answering this one.
  if (++attempt_ > 1) rerandomize_query(message_, retry_, shared_rng_ ? *shared_rng_ : own_rng_);
  telemetry_.attempts = attempt_;
  ledger_.begin_attempt();
  sent_at_ = now;
  deadline_ = now + std::chrono::duration_cast<std::chrono::nanoseconds>(options_->timeout);
  // A cancellation deadline caps the collection window; a manual token is
  // re-checked by the driver every kCancelPollSlice.
  if (honour_cancellation_)
    if (auto cancel_deadline = options_->cancel.deadline())
      deadline_ = std::min(deadline_, std::chrono::nanoseconds(cancel_deadline->time_since_epoch()));
  wake_at_ = deadline_;
  phase_ = Phase::waiting;
  return true;
}

void Exchange::on_expiry(std::chrono::nanoseconds now) {
  if (phase_ == Phase::collecting) {
    phase_ = Phase::done;
  } else if (phase_ == Phase::backing_off) {
    phase_ = Phase::ready;
  } else if (phase_ == Phase::waiting) {
    ++telemetry_.timeouts;
    phase_ = Phase::done;
    if (!cancelled() && attempt_ < std::max(1u, retry_.max_attempts)) {
      auto backoff = retry_.backoff_before(attempt_ + 1);
      telemetry_.backoff_waited += backoff;
      wake_at_ = now + std::chrono::duration_cast<std::chrono::nanoseconds>(backoff);
      phase_ = Phase::backing_off;
    }
  }
}

void Exchange::on_cancel() {
  // Cancellation never manufactures an answer and never drops one.
  if (phase_ == Phase::waiting) ++telemetry_.timeouts;
  phase_ = Phase::done;
}

void Exchange::on_inbound(const ExchangeChannel::Inbound& inbound,
                          std::chrono::nanoseconds now) {
  if (inbound.kind == ExchangeChannel::Inbound::Kind::icmp_ttl_exceeded) {
    // The quoted datagram inside the error is our own query; confirm by id
    // before crediting the reporting router.
    auto quoted = dnswire::decode_view(inbound.payload);
    if (quoted && quoted->id() == message_.id && inbound.icmp_from)
      ledger_.note_icmp(*inbound.icmp_from);
    return;
  }
  auto response = dnswire::decode_message(inbound.payload);
  if (!response) {
    ledger_.note_malformed();  // on our flow but not DNS: injection debris
    return;
  }
  if (!inbound.source_matches || !response_acceptable(message_, *response)) {
    // Wrong-egress injection, or a wrong ID / unechoed question: an
    // off-path guess.
    ledger_.note_spoof();
    return;
  }
  deliver(std::move(*response), inbound.source,
          payload_fingerprint(inbound.payload.data(), inbound.payload.size()), now);
}

ExchangeLedger::Disposition Exchange::deliver(dnswire::Message&& response, SourceKey source,
                                              std::uint64_t fingerprint,
                                              std::chrono::nanoseconds now) {
  auto rtt = std::chrono::duration_cast<std::chrono::microseconds>(now - sent_at_);
  auto disposition = ledger_.deliver(message_, std::move(response), source, fingerprint, rtt);
  if (disposition == ExchangeLedger::Disposition::accepted) {
    phase_ = Phase::collecting;
    if (duplicate_window_)
      wake_at_ = std::min(
          deadline_, now + std::chrono::duration_cast<std::chrono::nanoseconds>(*duplicate_window_));
  }
  return disposition;
}

QueryResult Exchange::finish() {
  phase_ = Phase::done;
  QueryResult result = std::move(ledger_.result());
  result.retry = telemetry_;
  return result;
}

QueryResult run_exchange(ExchangeChannel& channel, const dnswire::Message& message,
                         const QueryOptions& options, const ExchangePolicy& policy,
                         simnet::Rng* shared_rng) {
  Exchange exchange(message, options, policy, shared_rng);
  while (exchange.phase() != Exchange::Phase::done) {
    if (exchange.phase() == Exchange::Phase::backing_off) {
      auto backoff =
          std::chrono::duration_cast<std::chrono::milliseconds>(exchange.wake_at() - channel.now());
      if (channel.wait_backoff(backoff, options.cancel))
        exchange.on_expiry(channel.now());
      else
        exchange.on_cancel();
      continue;
    }
    if (!exchange.begin_attempt(channel.now())) break;
    obs::Span attempt_span("transport/attempt");
    if (!channel.begin_attempt_and_send(exchange.message(), exchange.wake_at()))
      exchange.on_expiry(channel.now());  // unsendable: burns as a timeout
    while (exchange.on_wire()) {
      if (exchange.cancelled()) {
        exchange.on_cancel();
        break;
      }
      ExchangeChannel::Inbound* inbound = channel.receive(exchange.wake_at(), options.cancel);
      if (inbound)
        exchange.on_inbound(*inbound, channel.now());
      else if (exchange.cancelled())
        exchange.on_cancel();
      else
        exchange.on_expiry(channel.now());
    }
    channel.end_attempt();
  }
  return exchange.finish();
}

}  // namespace dnslocate::core
