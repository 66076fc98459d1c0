#include "sockets/tcp_transport.h"

#include <fcntl.h>
#include <poll.h>

#include <cerrno>
#include <thread>

#include "core/exchange.h"
#include "dnswire/encoder.h"
#include "obs/span.h"
#include "sockets/socket_util.h"

namespace dnslocate::sockets {
namespace {

using Clock = std::chrono::steady_clock;

/// Wait until the fd is ready for `events`, the deadline passes or `cancel`
/// fires. A cancellable token is re-checked every core::kCancelPollSlice.
bool wait_ready(int fd, short events, Clock::time_point deadline,
                const core::CancelToken& cancel) {
  while (!cancel.cancelled()) {
    // Rounded up, so the wait never ends just short of the deadline.
    auto remaining = std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
    if (remaining.count() <= 0) return false;
    if (cancel.active()) remaining = std::min(remaining, core::kCancelPollSlice);
    pollfd pfd{fd, events, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready > 0) return true;
    if (ready < 0 && errno != EINTR) return false;
  }
  return false;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t size, Clock::time_point deadline,
              const core::CancelToken& cancel) {
  std::size_t sent = 0;
  while (sent < size) {
    if (!wait_ready(fd, POLLOUT, deadline, cancel)) return false;
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_all(int fd, std::uint8_t* data, std::size_t size, Clock::time_point deadline,
              const core::CancelToken& cancel) {
  std::size_t received = 0;
  while (received < size) {
    if (!wait_ready(fd, POLLIN, deadline, cancel)) return false;
    ssize_t n = ::recv(fd, data + received, size - received, 0);
    if (n == 0) return false;  // peer closed early
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    received += static_cast<std::size_t>(n);
  }
  return true;
}

/// The TCP ExchangeChannel: one non-blocking connection per attempt,
/// RFC 7766 2-octet length framing, one framed message per receive(). The
/// connected stream pins the source (the kernel's wrong-source check can
/// never fire here), so over TCP the spoof evidence comes from frames that
/// fail RFC 5452 acceptance — a middlebox answering with the wrong ID or an
/// unechoed question is tallied exactly like a UDP off-path guess.
class TcpChannel final : public core::ExchangeChannel {
 public:
  TcpChannel(const netbase::Endpoint& server, const core::CancelToken& cancel)
      : server_(server), cancel_(cancel) {}

  [[nodiscard]] std::chrono::nanoseconds now() override {
    return Clock::now().time_since_epoch();
  }

  bool begin_attempt_and_send(const dnswire::Message& attempt,
                              std::chrono::nanoseconds deadline) override {
    int domain = server_.address.is_v4() ? AF_INET : AF_INET6;
    fd_.reset(::socket(domain, SOCK_STREAM | SOCK_NONBLOCK, 0));
    if (!fd_.valid()) return false;
    auto deadline_at = Clock::time_point(deadline);

    sockaddr_storage dest{};
    socklen_t dest_len = to_sockaddr(server_, dest);
    int rc = ::connect(fd_.get(), reinterpret_cast<const sockaddr*>(&dest), dest_len);
    if (rc < 0 && errno != EINPROGRESS) return false;
    if (rc < 0) {
      if (!wait_ready(fd_.get(), POLLOUT, deadline_at, cancel_)) return false;
      int error = 0;
      socklen_t len = sizeof error;
      ::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &error, &len);
      if (error != 0) return false;
    }

    // RFC 7766 §8: two-octet length prefix, then the message.
    dnswire::WireBuffer wire = dnswire::encode_message(attempt);
    if (wire.size() > 0xffff) return false;
    std::vector<std::uint8_t> framed;
    framed.reserve(wire.size() + 2);
    framed.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
    framed.push_back(static_cast<std::uint8_t>(wire.size() & 0xff));
    framed.insert(framed.end(), wire.begin(), wire.end());
    return send_all(fd_.get(), framed.data(), framed.size(), deadline_at, cancel_);
  }

  Inbound* receive(std::chrono::nanoseconds horizon,
                   const core::CancelToken& cancel) override {
    auto horizon_at = Clock::time_point(horizon);
    std::uint8_t length_prefix[2];
    if (!recv_all(fd_.get(), length_prefix, 2, horizon_at, cancel)) return nullptr;
    std::size_t length = static_cast<std::size_t>(length_prefix[0]) << 8 | length_prefix[1];

    in_.kind = Inbound::Kind::datagram;
    in_.icmp_from.reset();
    in_.source_matches = true;  // the connected stream pins the peer
    in_.source = core::source_key_from(server_);
    in_.payload.resize(length);
    // A zero-length frame decodes as nothing and is tallied as malformed by
    // the kernel; the stream stays aligned for the next frame either way.
    if (length > 0 && !recv_all(fd_.get(), in_.payload.data(), length, horizon_at, cancel))
      return nullptr;
    return &in_;
  }

  void end_attempt() override { fd_.reset(); }

  /// Sleep out the backoff in slices, so a manual cancel interrupts it, and
  /// no later than the token's deadline. sleep_until, not a millisecond
  /// count: a truncated remainder would wake just short of a deadline-capped
  /// wake and report the backoff complete.
  bool wait_backoff(std::chrono::milliseconds backoff,
                    const core::CancelToken& cancel) override {
    auto wake = Clock::now() + backoff;
    if (auto deadline = cancel.deadline()) wake = std::min(wake, *deadline);
    while (!cancel.cancelled() && Clock::now() < wake)
      std::this_thread::sleep_until(
          cancel.active() ? std::min(wake, Clock::now() + core::kCancelPollSlice) : wake);
    return !cancel.cancelled();
  }

 private:
  netbase::Endpoint server_;
  const core::CancelToken& cancel_;
  Fd fd_;
  Inbound in_;
};

}  // namespace

bool TcpTransport::supports_family(netbase::IpFamily family) const {
  int domain = family == netbase::IpFamily::v4 ? AF_INET : AF_INET6;
  Fd fd(::socket(domain, SOCK_STREAM, 0));
  return fd.valid();
}

core::QueryResult TcpTransport::query(const netbase::Endpoint& server,
                                      const dnswire::Message& message,
                                      const core::QueryOptions& options) {
  obs::Span query_span("transport/query_tcp");
  core::ExchangePolicy policy;
  policy.retry = config_.retry;
  policy.duplicate_window = config_.duplicate_window;
  TcpChannel channel(server, options.cancel);
  core::QueryResult result = core::run_exchange(channel, message, options, policy);
  record_telemetry(result);
  return result;
}

core::QueryResult FallbackTransport::query(const netbase::Endpoint& server,
                                           const dnswire::Message& message,
                                           const core::QueryOptions& options) {
  auto leg = [&](core::AsyncQueryTransport& engine) {
    const core::TransportTelemetry before = engine.transport().telemetry();
    core::QueryResult result = core::query_one(engine, server, message, options);
    tally_delegated(engine.transport().telemetry() - before);
    return result;
  };
  core::QueryResult result = leg(udp_);
  if (result.answered() && result.response->flags.tc) {
    ++tcp_retries_;
    if (obs::metrics_enabled()) {
      static obs::Counter& fallbacks =
          obs::registry().counter("transport_tcp_fallbacks_total");
      fallbacks.add_always(1);
    }
    core::QueryResult tcp_result = leg(tcp_);
    if (tcp_result.answered()) return tcp_result;
    // TCP failed: the truncated UDP answer is still the best we have.
  }
  return result;
}

}  // namespace dnslocate::sockets
