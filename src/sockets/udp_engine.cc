#include "sockets/udp_engine.h"

#include <poll.h>

#include <cerrno>
#include <deque>
#include <thread>
#include <unordered_map>

#include "core/exchange.h"
#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "dnswire/view.h"
#include "obs/clock.h"
#include "obs/span.h"
#include "sockets/socket_util.h"
#include "sockets/timer_wheel.h"

namespace dnslocate::sockets {
namespace {

using Clock = std::chrono::steady_clock;

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

/// The exchanges' clock: steady_clock since its epoch, the epoch the timer
/// wheel and CancelToken deadlines share.
std::chrono::nanoseconds now() { return Clock::now().time_since_epoch(); }

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

  // One attempt timeline per query. An admitted query holds one of the
  // max_inflight slots from its first send until it completes, through
  // every attempt and backoff.
  std::vector<core::Exchange> exchanges;
  exchanges.reserve(batch.size());
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

  core::ExchangePolicy policy;
  policy.retry = config_.retry;
  policy.duplicate_window = config_.duplicate_window;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const core::QuerySpec& spec = batch.spec(i);
    exchanges.emplace_back(spec.message, spec.options, policy);
    if (spec.options.cancel.active()) any_cancelable = true;
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

  // Retire query i's live attempt ID, if it has one on the wire.
  auto unmap_id = [&](std::size_t i) {
    std::uint16_t id = exchanges[i].message().id;
    auto range = by_id.equal_range(id);
    for (auto it = range.first; it != range.second; ++it)
      if (it->second == i) {
        by_id.erase(it);
        retired_ids.emplace(id, i);
        break;
      }
  };

  auto complete = [&](std::size_t i) {
    batch.result(i) = exchanges[i].finish();
    // Cut short by cancellation: abandoned in flight or never sent.
    if (!batch.result(i).answered() && exchanges[i].cancelled()) drained = true;
    record_telemetry(batch.result(i));
    ++completed;
  };

  auto send = [&](const core::QuerySpec& spec, const dnswire::Message& message) {
    int fd = socket_for(spec.server);
    if (fd < 0) return false;
    if (spec.options.ttl) {
      int ttl = *spec.options.ttl;
      if (spec.server.address.is_v4())
        ::setsockopt(fd, IPPROTO_IP, IP_TTL, &ttl, sizeof ttl);
      else
        ::setsockopt(fd, IPPROTO_IPV6, IPV6_UNICAST_HOPS, &ttl, sizeof ttl);
    }
    sockaddr_storage dest{};
    socklen_t dest_len = to_sockaddr(spec.server, dest);
    dnswire::WireBuffer wire = dnswire::encode_message(message);
    return ::sendto(fd, wire.data(), wire.size(), 0, reinterpret_cast<const sockaddr*>(&dest),
                    dest_len) >= 0;
  };

  // Follow up a transition of admitted query i: retire the ID of an attempt
  // that left the wire, put a due attempt on it, then re-arm the timer or
  // complete the query and free its slot.
  auto settle = [&](std::size_t i) {
    core::Exchange& x = exchanges[i];
    if (!x.on_wire()) unmap_id(i);
    if (x.phase() == core::Exchange::Phase::ready && x.begin_attempt(now())) {
      if (send(batch.spec(i), x.message()))
        by_id.emplace(x.message().id, i);
      else
        x.on_expiry(now());  // unsendable: burns as a timeout
    }
    if (x.phase() != core::Exchange::Phase::done) {
      wheel.schedule(i, Clock::time_point(x.wake_at()));
      return;
    }
    wheel.cancel(i);
    --inflight;
    complete(i);
  };

  auto admit = [&] {
    while (inflight < std::max<std::size_t>(1, config_.max_inflight) && !admission.empty()) {
      std::size_t i = admission.front();
      admission.pop_front();
      if (exchanges[i].cancelled()) {
        // Drained before it was ever sent: an honest timeout with zero
        // attempts, never a fabricated answer.
        exchanges[i].on_cancel();
        complete(i);
        continue;
      }
      ++inflight;
      peak_inflight = std::max(peak_inflight, inflight);
      settle(i);
    }
  };

  // Every admitted query still running: past ready, not yet done.
  auto drain_cancelled = [&] {
    for (std::size_t i = 0; i < exchanges.size(); ++i) {
      core::Exchange& x = exchanges[i];
      auto phase = x.phase();
      if (phase == core::Exchange::Phase::ready || phase == core::Exchange::Phase::done ||
          !x.cancelled())
        continue;
      x.on_cancel();
      settle(i);
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
          if (*late_source == batch.spec(it->second).server &&
              core::response_acceptable(exchanges[it->second].message(), *late_response)) {
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
          if (exchanges[it->second].on_wire()) {
            exchanges[it->second].ledger().note_malformed();
            break;
          }
        continue;
      }

      // Demux: transaction ID narrows to candidates, then the full RFC 5452
      // acceptance predicate (ID + opcode + echoed 0x20-encoded question)
      // and the source endpoint pin the response to one in-flight query.
      auto range = by_id.equal_range(response->id);
      bool settled = false;  // delivered, or recognized as a duplicate
      std::size_t wrong_source = exchanges.size();  // acceptable, wrong endpoint
      std::size_t unacceptable = exchanges.size();  // right endpoint, failed check
      for (auto it = range.first; it != range.second; ++it) {
        std::size_t i = it->second;
        core::Exchange& x = exchanges[i];
        if (!x.on_wire()) continue;
        bool source_ok = *source == batch.spec(i).server;
        bool acceptable = core::response_acceptable(x.message(), *response);
        if (!source_ok || !acceptable) {
          if (acceptable) wrong_source = i;           // wrong-egress injection
          else if (source_ok) unacceptable = i;       // ID hit, question/0x20 miss
          continue;
        }

        // The exchange arbitrates (dedup, 0x20 evidence, accept-or-conflict);
        // a first accept opens the duplicate-collection window, so the
        // query's timer moves up to the window's end.
        auto disposition = x.deliver(
            std::move(*response),
            core::source_key_from(reinterpret_cast<const std::uint8_t*>(&from),
                                  static_cast<std::size_t>(from_len)),
            core::payload_fingerprint(buffer, static_cast<std::size_t>(n)), now());
        settled = true;
        if (disposition == core::ExchangeLedger::Disposition::accepted)
          wheel.schedule(i, Clock::time_point(x.wake_at()));
        break;
      }
      if (!settled) {
        if (wrong_source != exchanges.size())
          exchanges[wrong_source].ledger().note_spoof();
        else if (unacceptable != exchanges.size())
          exchanges[unacceptable].ledger().note_spoof();
      }
    }
  };

  admit();
  while (completed < batch.size()) {
    drain_cancelled();
    admit();
    if (completed >= batch.size()) break;

    for (std::size_t i : wheel.advance(Clock::now())) {
      exchanges[i].on_expiry(now());
      settle(i);
    }
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
    if (any_cancelable) timeout = std::min(timeout, core::kCancelPollSlice);

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
  for (std::size_t i = 0; i < exchanges.size(); ++i)
    if (exchanges[i].phase() != core::Exchange::Phase::done) {
      batch.result(i) = exchanges[i].finish();
      record_telemetry(batch.result(i));
    }

  if (drained) batch.mark_drained();
  core::note_batch_metrics(batch.size(), obs::now_ns() - started_ns, peak_inflight, drained);
}

}  // namespace dnslocate::sockets
