#include "core/exchange.h"

#include <algorithm>
#include <thread>

#include "dnswire/decoder.h"
#include "dnswire/view.h"
#include "obs/span.h"

namespace dnslocate::core {
namespace {

/// Granularity at which waits re-check a manually-cancellable token (a
/// deadline token needs no polling — it caps the wait horizon directly).
constexpr std::chrono::milliseconds kCancelPollSlice{50};

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

void prepare_retry_attempt(dnswire::Message& message, const RetryPolicy& policy,
                           simnet::Rng& rng) {
  rerandomize_query(message, policy, rng);
}

bool interruptible_backoff(std::chrono::milliseconds backoff, const CancelToken& cancel) {
  if (!cancel.active()) {
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    return true;
  }
  auto wake = CancelToken::Clock::now() + backoff;
  if (auto deadline = cancel.deadline()) wake = std::min(wake, *deadline);
  while (!cancel.cancelled()) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        wake - CancelToken::Clock::now());
    if (remaining.count() <= 0) break;
    std::this_thread::sleep_for(std::min(remaining, kCancelPollSlice));
  }
  return !cancel.cancelled();
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

QueryResult run_exchange(ExchangeChannel& channel, const dnswire::Message& message,
                         const QueryOptions& options, const ExchangePolicy& policy,
                         simnet::Rng& rng) {
  unsigned budget = std::max(1u, policy.retry.max_attempts);
  dnswire::Message attempt_message = message;
  RetryTelemetry telemetry;
  ExchangeLedger ledger;

  for (unsigned attempt_number = 1; attempt_number <= budget; ++attempt_number) {
    if (attempt_number > 1) {
      auto backoff = policy.retry.backoff_before(attempt_number);
      telemetry.backoff_waited += backoff;
      // The backoff wait honours the cancellation token: a supervised probe
      // stopped mid-backoff abandons its remaining attempts (reported as a
      // timeout — cancellation never manufactures an answer).
      if (!channel.wait_backoff(backoff, options.cancel)) break;
      // Fresh transaction ID (and 0x20 pattern): a straggling response to
      // an earlier attempt fails the ID check instead of answering this one.
      prepare_retry_attempt(attempt_message, policy.retry, rng);
    }
    if (policy.honour_cancellation && options.cancel.cancelled()) break;

    obs::Span attempt_span("transport/attempt");
    ledger.begin_attempt();
    auto sent_at = channel.now();
    auto deadline = sent_at + std::chrono::duration_cast<std::chrono::nanoseconds>(options.timeout);
    // A cancellation deadline caps the collection window; a manual token is
    // re-checked every poll slice inside the channel's receive.
    if (policy.honour_cancellation)
      if (auto cancel_deadline = options.cancel.deadline())
        deadline = std::min(deadline,
                            std::chrono::nanoseconds(cancel_deadline->time_since_epoch()));

    telemetry.attempts = attempt_number;
    if (!channel.begin_attempt_and_send(attempt_message, deadline)) {
      // Unsendable attempt (no socket / unsupported family / network down):
      // burns the attempt immediately, exactly like a silent network.
      ++telemetry.timeouts;
      channel.end_attempt();
      continue;
    }

    std::optional<std::chrono::nanoseconds> duplicate_deadline;
    while (true) {
      if (policy.honour_cancellation && options.cancel.cancelled()) break;
      auto horizon = duplicate_deadline ? std::min(*duplicate_deadline, deadline) : deadline;
      ExchangeChannel::Inbound* inbound = channel.receive(horizon, options.cancel);
      if (!inbound) break;

      if (inbound->kind == ExchangeChannel::Inbound::Kind::icmp_ttl_exceeded) {
        // The quoted datagram inside the error is our own query; confirm by
        // id before crediting the reporting router.
        auto quoted = dnswire::decode_view(inbound->payload);
        if (quoted && quoted->id() == attempt_message.id && inbound->icmp_from)
          ledger.note_icmp(*inbound->icmp_from);
        continue;
      }

      auto response = dnswire::decode_message(inbound->payload);
      if (!response) {
        ledger.note_malformed();  // on our flow but not DNS: injection debris
        continue;
      }
      if (!inbound->source_matches) {
        ledger.note_spoof();  // wrong-egress injection
        continue;
      }
      if (!response_acceptable(attempt_message, *response)) {
        ledger.note_spoof();  // wrong ID / unechoed question: off-path guess
        continue;
      }

      auto rtt = std::chrono::duration_cast<std::chrono::microseconds>(channel.now() - sent_at);
      auto disposition = ledger.deliver(
          attempt_message, std::move(*response), inbound->source,
          payload_fingerprint(inbound->payload.data(), inbound->payload.size()), rtt);
      if (disposition == ExchangeLedger::Disposition::accepted && policy.duplicate_window)
        duplicate_deadline =
            channel.now() +
            std::chrono::duration_cast<std::chrono::nanoseconds>(*policy.duplicate_window);
    }
    channel.end_attempt();

    if (ledger.result().answered()) break;
    ++telemetry.timeouts;
  }

  QueryResult result = std::move(ledger.result());
  result.retry = telemetry;
  return result;
}

}  // namespace dnslocate::core
