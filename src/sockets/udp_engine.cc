#include "sockets/udp_engine.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>

#include "core/exchange.h"
#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "dnswire/view.h"
#include "obs/clock.h"
#include "obs/span.h"
#include "simnet/rng.h"
#include "sockets/timer_wheel.h"

namespace dnslocate::sockets {
namespace {

using Clock = std::chrono::steady_clock;

class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  void reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }
  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

socklen_t to_sockaddr(const netbase::Endpoint& endpoint, sockaddr_storage& storage) {
  std::memset(&storage, 0, sizeof storage);
  if (endpoint.address.is_v4()) {
    auto* sa = reinterpret_cast<sockaddr_in*>(&storage);
    sa->sin_family = AF_INET;
    sa->sin_port = htons(endpoint.port);
    auto bytes = endpoint.address.v4().to_bytes();
    std::memcpy(&sa->sin_addr, bytes.data(), 4);
    return sizeof(sockaddr_in);
  }
  auto* sa = reinterpret_cast<sockaddr_in6*>(&storage);
  sa->sin6_family = AF_INET6;
  sa->sin6_port = htons(endpoint.port);
  const auto& bytes = endpoint.address.v6().bytes();
  std::memcpy(&sa->sin6_addr, bytes.data(), 16);
  return sizeof(sockaddr_in6);
}

/// Decode the kernel-filled source address of a datagram.
std::optional<netbase::Endpoint> from_sockaddr(const sockaddr_storage& storage) {
  if (storage.ss_family == AF_INET) {
    const auto* sa = reinterpret_cast<const sockaddr_in*>(&storage);
    std::array<std::uint8_t, 4> bytes{};
    std::memcpy(bytes.data(), &sa->sin_addr, 4);
    return netbase::Endpoint{netbase::Ipv4Address::from_bytes(bytes), ntohs(sa->sin_port)};
  }
  if (storage.ss_family == AF_INET6) {
    const auto* sa = reinterpret_cast<const sockaddr_in6*>(&storage);
    netbase::Ipv6Address::Bytes bytes{};
    std::memcpy(bytes.data(), &sa->sin6_addr, 16);
    return netbase::Endpoint{netbase::Ipv6Address(bytes), ntohs(sa->sin6_port)};
  }
  return std::nullopt;
}

/// Granularity at which the event loop re-checks manually-cancellable
/// tokens.
constexpr std::chrono::milliseconds kCancelPollSlice{50};

/// Per-query execution state: one query's timeline (attempt, answer,
/// duplicate window, backoff), expressed as an explicit machine the event
/// loop advances.
struct QueryState {
  enum class Phase {
    queued,       // submitted but not admitted yet (over max_inflight)
    waiting,      // attempt on the wire, no answer yet
    collecting,   // answered; gathering replication duplicates
    backing_off,  // between attempts
    done,
  };

  const core::QuerySpec* spec = nullptr;
  Phase phase = Phase::queued;
  core::RetryPolicy policy;
  unsigned budget = 1;
  unsigned attempt = 0;  // attempts sent so far
  dnswire::Message attempt_message;
  simnet::Rng rng{0};

  Clock::time_point sent_at{};
  Clock::time_point attempt_deadline{};
  std::optional<Clock::time_point> duplicate_deadline;

  /// Acceptance/arbitration state, owned by the exchange kernel's ledger —
  /// the engine's demux routes datagrams, the ledger judges them.
  core::ExchangeLedger ledger;
  core::RetryTelemetry telemetry;

  /// Admitted and not yet complete: the query occupies one of the
  /// max_inflight slots through every attempt and backoff.
  bool holds_slot = false;

  [[nodiscard]] bool in_flight() const {
    return phase == Phase::waiting || phase == Phase::collecting;
  }
  /// The horizon the timer wheel should wake this query at.
  [[nodiscard]] Clock::time_point horizon() const {
    if (phase == Phase::collecting && duplicate_deadline)
      return std::min(attempt_deadline, *duplicate_deadline);
    return attempt_deadline;
  }
};

}  // namespace

bool UdpEngine::supports_family(netbase::IpFamily family) const {
  int domain = family == netbase::IpFamily::v4 ? AF_INET : AF_INET6;
  Fd fd(::socket(domain, SOCK_DGRAM, 0));
  return fd.valid();
}

void UdpEngine::run(core::QueryBatch& batch) {
  obs::Span run_span("engine/batch_run");
  std::uint64_t started_ns = obs::now_ns();
  if (batch.empty()) {
    core::note_batch_metrics(0, obs::now_ns() - started_ns, 0, false);
    return;
  }

  std::vector<QueryState> states(batch.size());
  std::deque<std::size_t> admission;       // not yet sent, in submission order
  std::unordered_multimap<std::uint16_t, std::size_t> by_id;  // live attempt IDs
  // Attempt IDs whose transaction finished (completed, cancelled, or the
  // attempt was retired by a retry). A response matching one of these is
  // dropped — but verified and counted, so arbitration evidence is exact.
  std::unordered_multimap<std::uint16_t, std::size_t> retired_ids;
  TimerWheel wheel;
  Fd socket_v4;
  Fd socket_v6;
  std::size_t inflight = 0;
  std::size_t peak_inflight = 0;
  std::size_t completed = 0;
  bool drained = false;
  bool any_cancelable = false;

  for (std::size_t i = 0; i < batch.size(); ++i) {
    QueryState& q = states[i];
    q.spec = &batch.spec(i);
    q.policy = q.spec->options.retry.enabled() ? q.spec->options.retry : config_.retry;
    q.budget = std::max(1u, q.policy.max_attempts);
    q.attempt_message = q.spec->message;
    // Re-randomization stream keyed by the original transaction ID (the
    // scheme TcpTransport shares), so a retried attempt's fresh ID and 0x20
    // pattern do not depend on admission order or the in-flight cap.
    q.rng = simnet::Rng(config_.retry_seed ^
                        (static_cast<std::uint64_t>(q.spec->message.id) << 32));
    if (q.spec->options.cancel.active()) any_cancelable = true;
    admission.push_back(i);
  }

  auto socket_for = [&](const netbase::Endpoint& server) -> int {
    Fd& fd = server.address.is_v4() ? socket_v4 : socket_v6;
    if (!fd.valid()) {
      int domain = server.address.is_v4() ? AF_INET : AF_INET6;
      fd.reset(::socket(domain, SOCK_DGRAM | SOCK_NONBLOCK, 0));
    }
    return fd.get();
  };

  auto unmap_id = [&](std::size_t i) {
    auto range = by_id.equal_range(states[i].attempt_message.id);
    for (auto it = range.first; it != range.second; ++it)
      if (it->second == i) {
        by_id.erase(it);
        retired_ids.emplace(states[i].attempt_message.id, i);
        break;
      }
  };

  auto complete = [&](std::size_t i) {
    QueryState& q = states[i];
    if (q.in_flight()) unmap_id(i);
    if (q.holds_slot) {
      q.holds_slot = false;
      --inflight;
    }
    wheel.cancel(i);
    q.phase = QueryState::Phase::done;
    q.ledger.result().retry = q.telemetry;
    batch.result(i) = q.ledger.result();
    record_telemetry(batch.result(i));
    ++completed;
  };

  auto send_attempt = [&](std::size_t i) {
    QueryState& q = states[i];
    ++q.attempt;
    q.telemetry.attempts = q.attempt;
    if (q.attempt > 1) core::prepare_retry_attempt(q.attempt_message, q.policy, q.rng);

    int fd = socket_for(q.spec->server);
    bool sent = false;
    if (fd >= 0) {
      if (q.spec->options.ttl) {
        int ttl = *q.spec->options.ttl;
        if (q.spec->server.address.is_v4())
          ::setsockopt(fd, IPPROTO_IP, IP_TTL, &ttl, sizeof ttl);
        else
          ::setsockopt(fd, IPPROTO_IPV6, IPV6_UNICAST_HOPS, &ttl, sizeof ttl);
      }
      sockaddr_storage dest{};
      socklen_t dest_len = to_sockaddr(q.spec->server, dest);
      dnswire::WireBuffer wire = dnswire::encode_message(q.attempt_message);
      sent = ::sendto(fd, wire.data(), wire.size(), 0,
                      reinterpret_cast<const sockaddr*>(&dest), dest_len) >= 0;
    }

    q.sent_at = Clock::now();
    if (!sent) {
      // Unsendable attempt (no socket / network down): burns the attempt
      // immediately.
      ++q.telemetry.timeouts;
      if (q.attempt < q.budget) {
        auto backoff = q.policy.backoff_before(q.attempt + 1);
        q.telemetry.backoff_waited += backoff;
        q.phase = QueryState::Phase::backing_off;
        q.attempt_deadline = q.sent_at + backoff;
        wheel.schedule(i, q.attempt_deadline);
      } else {
        complete(i);
      }
      return;
    }

    q.attempt_deadline = q.sent_at + q.spec->options.timeout;
    if (auto cancel_deadline = q.spec->options.cancel.deadline())
      q.attempt_deadline = std::min(q.attempt_deadline, *cancel_deadline);
    q.phase = QueryState::Phase::waiting;
    by_id.emplace(q.attempt_message.id, i);
    wheel.schedule(i, q.horizon());
  };

  auto admit = [&] {
    while (inflight < std::max<std::size_t>(1, config_.max_inflight) && !admission.empty()) {
      std::size_t i = admission.front();
      admission.pop_front();
      QueryState& q = states[i];
      if (q.spec->options.cancel.cancelled()) {
        // Drained before it was ever sent: an honest timeout with zero
        // attempts, never a fabricated answer.
        drained = true;
        complete(i);
        continue;
      }
      ++inflight;
      q.holds_slot = true;
      peak_inflight = std::max(peak_inflight, inflight);
      send_attempt(i);
    }
  };

  auto on_timer = [&](std::size_t i) {
    QueryState& q = states[i];
    switch (q.phase) {
      case QueryState::Phase::collecting:
        complete(i);  // duplicate window (or deadline) over; answer stands
        break;
      case QueryState::Phase::waiting: {
        // Attempt timed out.
        ++q.telemetry.timeouts;
        if (q.attempt < q.budget && !q.spec->options.cancel.cancelled()) {
          unmap_id(i);
          auto backoff = q.policy.backoff_before(q.attempt + 1);
          q.telemetry.backoff_waited += backoff;
          q.phase = QueryState::Phase::backing_off;
          q.attempt_deadline = Clock::now() + backoff;
          wheel.schedule(i, q.attempt_deadline);
        } else {
          complete(i);
        }
        break;
      }
      case QueryState::Phase::backing_off:
        // Backoff over; the query kept its slot, so the retry goes out now.
        send_attempt(i);
        break;
      case QueryState::Phase::queued:
      case QueryState::Phase::done:
        break;
    }
  };

  auto drain_cancelled = [&] {
    for (std::size_t i = 0; i < states.size(); ++i) {
      QueryState& q = states[i];
      if (q.phase == QueryState::Phase::done || q.phase == QueryState::Phase::queued) continue;
      if (!q.spec->options.cancel.cancelled()) continue;
      if (q.phase == QueryState::Phase::collecting) {
        complete(i);  // already answered — the answer is kept, never dropped
        continue;
      }
      if (q.phase == QueryState::Phase::waiting) ++q.telemetry.timeouts;
      drained = true;
      complete(i);
    }
  };

  auto receive_on = [&](int fd) {
    while (true) {
      std::uint8_t buffer[4096];
      sockaddr_storage from{};
      socklen_t from_len = sizeof from;
      ssize_t n = ::recvfrom(fd, buffer, sizeof buffer, 0,
                             reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n <= 0) break;  // EAGAIN: drained the socket

      // Prefilter with the zero-copy view: a structural walk yields the
      // transaction ID and QR bit without materializing names or records,
      // so datagrams that match no in-flight query (scans, stray retries,
      // late duplicates after completion) never pay for a full decode.
      auto view = dnswire::decode_view({buffer, static_cast<std::size_t>(n)});
      if (!view || !view->is_response()) continue;
      if (by_id.find(view->id()) == by_id.end()) {
        // No in-flight attempt wants this ID. If it matches a retired
        // transaction (completed, cancelled, or a re-randomized earlier
        // attempt), verify it really is that transaction's response and
        // count the drop — silent ignores would make arbitration evidence
        // inexact (see ISSUE: late/spoof demux hardening).
        auto retired = retired_ids.equal_range(view->id());
        if (retired.first == retired.second) continue;
        auto late_response = view->to_message();
        auto late_source = from_sockaddr(from);
        if (!late_response || !late_source) continue;
        for (auto it = retired.first; it != retired.second; ++it) {
          const QueryState& q = states[it->second];
          if (*late_source == q.spec->server &&
              core::response_acceptable(q.attempt_message, *late_response)) {
            record_late_duplicate();
            break;
          }
        }
        continue;
      }

      auto source = from_sockaddr(from);
      if (!source) continue;
      auto response = view->to_message();
      if (!response) {
        // Structurally walkable but not fully decodable, on a live ID:
        // injection debris, attributed to the first in-flight candidate.
        auto range = by_id.equal_range(view->id());
        for (auto it = range.first; it != range.second; ++it)
          if (states[it->second].in_flight()) {
            states[it->second].ledger.note_malformed();
            break;
          }
        continue;
      }

      // Demux: transaction ID narrows to candidates, then the full RFC 5452
      // acceptance predicate (ID + opcode + echoed 0x20-encoded question)
      // and the source endpoint pin the response to one in-flight query.
      auto range = by_id.equal_range(response->id);
      bool settled = false;  // delivered, or recognized as a duplicate
      std::size_t wrong_source = states.size();  // acceptable, wrong endpoint
      std::size_t unacceptable = states.size();  // right endpoint, failed check
      for (auto it = range.first; it != range.second; ++it) {
        std::size_t i = it->second;
        QueryState& q = states[i];
        if (!q.in_flight()) continue;
        bool source_ok = *source == q.spec->server;
        bool acceptable = core::response_acceptable(q.attempt_message, *response);
        if (!source_ok || !acceptable) {
          if (acceptable) wrong_source = i;           // wrong-egress injection
          else if (source_ok) unacceptable = i;       // ID hit, question/0x20 miss
          continue;
        }

        // The ledger arbitrates (dedup, 0x20 evidence, accept-or-conflict);
        // the engine only reacts to the disposition: a first accept opens
        // the duplicate-collection window on the timer wheel.
        auto rtt =
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - q.sent_at);
        auto disposition = q.ledger.deliver(
            q.attempt_message, std::move(*response),
            core::source_key_from(reinterpret_cast<const std::uint8_t*>(&from),
                                  static_cast<std::size_t>(from_len)),
            core::payload_fingerprint(buffer, static_cast<std::size_t>(n)), rtt);
        settled = true;
        if (disposition == core::ExchangeLedger::Disposition::accepted) {
          q.duplicate_deadline = Clock::now() + config_.duplicate_window;
          q.phase = QueryState::Phase::collecting;
          wheel.schedule(i, q.horizon());
        }
        break;
      }
      if (!settled) {
        if (wrong_source != states.size())
          states[wrong_source].ledger.note_spoof();
        else if (unacceptable != states.size())
          states[unacceptable].ledger.note_spoof();
      }
    }
  };

  admit();
  while (completed < batch.size()) {
    drain_cancelled();
    admit();
    if (completed >= batch.size()) break;

    auto now = Clock::now();
    for (std::size_t i : wheel.advance(now)) on_timer(i);
    drain_cancelled();
    admit();
    if (completed >= batch.size()) break;

    auto horizon = wheel.next_deadline();
    auto timeout = std::chrono::milliseconds(1000);
    if (horizon) {
      timeout = std::chrono::duration_cast<std::chrono::milliseconds>(*horizon - Clock::now());
      // Round up so a wake never lands just before the deadline it serves.
      timeout = std::max(timeout, std::chrono::milliseconds(0)) + std::chrono::milliseconds(1);
    }
    if (any_cancelable) timeout = std::min(timeout, kCancelPollSlice);

    pollfd pfds[2];
    nfds_t nfds = 0;
    if (socket_v4.valid()) pfds[nfds++] = pollfd{socket_v4.get(), POLLIN, 0};
    if (socket_v6.valid()) pfds[nfds++] = pollfd{socket_v6.get(), POLLIN, 0};
    if (nfds == 0) {
      // No socket could be opened; timers alone drive progress.
      std::this_thread::sleep_for(std::min(timeout, std::chrono::milliseconds(5)));
      continue;
    }

    int ready = ::poll(pfds, nfds, static_cast<int>(timeout.count()));
    if (ready < 0 && errno != EINTR) break;
    if (ready > 0)
      for (nfds_t p = 0; p < nfds; ++p)
        if ((pfds[p].revents & POLLIN) != 0) receive_on(pfds[p].fd);
  }

  // Safety net: a broken poll loop must still fill every slot (as timeouts).
  for (std::size_t i = 0; i < states.size(); ++i)
    if (states[i].phase != QueryState::Phase::done) {
      states[i].ledger.result().retry = states[i].telemetry;
      batch.result(i) = states[i].ledger.result();
      record_telemetry(batch.result(i));
    }

  if (drained) batch.mark_drained();
  core::note_batch_metrics(batch.size(), obs::now_ns() - started_ns, peak_inflight, drained);
}

}  // namespace dnslocate::sockets
