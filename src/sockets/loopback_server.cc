#include "sockets/loopback_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "dnswire/encoder.h"
#include "netbase/arena.h"

namespace dnslocate::sockets {

LoopbackDnsServer::LoopbackDnsServer(std::shared_ptr<resolvers::DnsResponder> responder,
                                     bool serve_tcp,
                                     std::chrono::milliseconds response_delay)
    : responder_(std::move(responder)), response_delay_(response_delay) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("LoopbackDnsServer: socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // OS-assigned
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd_);
    throw std::runtime_error("LoopbackDnsServer: bind() failed");
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  endpoint_ = netbase::Endpoint{netbase::Ipv4Address(127, 0, 0, 1), ntohs(addr.sin_port)};

  if (serve_tcp) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) {
      ::close(fd_);
      throw std::runtime_error("LoopbackDnsServer: tcp socket() failed");
    }
    int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    // Same port number as the UDP socket (distinct port spaces).
    if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(tcp_fd_, 8) < 0) {
      ::close(fd_);
      ::close(tcp_fd_);
      throw std::runtime_error("LoopbackDnsServer: tcp bind/listen failed");
    }
  }

  thread_ = std::thread([this] { serve(); });
}

LoopbackDnsServer::~LoopbackDnsServer() {
  running_.store(false);
  // Wake the serve thread's poll instead of waiting out its 50 ms slice:
  // after shutdown() the sockets poll readable (POLLHUP), even the
  // unconnected UDP one, for which the call itself reports ENOTCONN.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) ::close(fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
}

void LoopbackDnsServer::serve_udp_datagram() {
  std::uint8_t buffer[4096];
  sockaddr_storage from{};
  socklen_t from_len = sizeof from;
  ssize_t n = ::recvfrom(fd_, buffer, sizeof buffer, 0, reinterpret_cast<sockaddr*>(&from),
                         &from_len);
  if (n <= 0) return;

  resolvers::QueryContext context;
  if (from.ss_family == AF_INET) {
    const auto* sa = reinterpret_cast<const sockaddr_in*>(&from);
    std::array<std::uint8_t, 4> bytes{};
    std::memcpy(bytes.data(), &sa->sin_addr, 4);
    context.client = netbase::Ipv4Address::from_bytes(bytes);
  }
  context.server_ip = endpoint_.address;

  dnswire::WireBuffer wire;
  auto outcome = resolvers::serve_query(*responder_, {buffer, static_cast<std::size_t>(n)},
                                        context, /*udp=*/true, wire);
  if (outcome == resolvers::ServeOutcome::malformed) return;
  ++queries_served_;
  if (outcome == resolvers::ServeOutcome::silent) return;
  if (response_delay_.count() > 0) {
    // Hold the answer in the deferred queue; the serve loop flushes it when
    // due, so other clients' queries keep being ingested in the meantime.
    pending_.push_back(PendingSend{std::chrono::steady_clock::now() + response_delay_,
                                   std::move(wire), from, from_len});
    return;
  }
  ::sendto(fd_, wire.data(), wire.size(), 0, reinterpret_cast<const sockaddr*>(&from),
           from_len);
}

void LoopbackDnsServer::flush_due_sends() {
  auto now = std::chrono::steady_clock::now();
  while (!pending_.empty() && pending_.front().due <= now) {
    const PendingSend& send = pending_.front();
    ::sendto(fd_, send.wire.data(), send.wire.size(), 0,
             reinterpret_cast<const sockaddr*>(&send.to), send.to_len);
    pending_.pop_front();
  }
}

void LoopbackDnsServer::serve_tcp_connection() {
  int conn = ::accept(tcp_fd_, nullptr, nullptr);
  if (conn < 0) return;

  auto read_all = [&](std::uint8_t* data, std::size_t size) {
    std::size_t got = 0;
    while (got < size) {
      pollfd pfd{conn, POLLIN, 0};
      if (::poll(&pfd, 1, 1000) <= 0) return false;
      ssize_t n = ::recv(conn, data + got, size - got, 0);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  };

  std::uint8_t prefix[2];
  if (read_all(prefix, 2)) {
    std::size_t length = static_cast<std::size_t>(prefix[0]) << 8 | prefix[1];
    std::vector<std::uint8_t> body(length);
    if (length > 0 && read_all(body.data(), length)) {
      resolvers::QueryContext context;
      context.client = netbase::Ipv4Address(127, 0, 0, 1);
      context.server_ip = endpoint_.address;
      dnswire::WireBuffer wire;
      auto outcome = resolvers::serve_query(*responder_, body, context, /*udp=*/false, wire);
      if (outcome != resolvers::ServeOutcome::malformed) ++tcp_queries_served_;
      if (outcome == resolvers::ServeOutcome::answered) {
        std::vector<std::uint8_t> framed{static_cast<std::uint8_t>(wire.size() >> 8),
                                         static_cast<std::uint8_t>(wire.size() & 0xff)};
        framed.insert(framed.end(), wire.begin(), wire.end());
        ::send(conn, framed.data(), framed.size(), MSG_NOSIGNAL);
      }
    }
  }
  ::close(conn);
}

void LoopbackDnsServer::serve() {
  // The serve thread owns the arena its wire buffers park in: a thread's
  // fallback arena is leaked at exit (netbase/arena.h).
  netbase::ByteArena arena;
  netbase::ScopedArena scoped(arena);
  while (running_.load()) {
    pollfd pfds[2];
    pfds[0] = {fd_, POLLIN, 0};
    nfds_t count = 1;
    if (tcp_fd_ >= 0) {
      pfds[1] = {tcp_fd_, POLLIN, 0};
      count = 2;
    }
    int timeout_ms = 50;
    if (!pending_.empty()) {
      auto until_due = std::chrono::duration_cast<std::chrono::milliseconds>(
          pending_.front().due - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(std::clamp<long long>(until_due.count(), 0, 50));
    }
    int ready = ::poll(pfds, count, timeout_ms);
    flush_due_sends();
    if (ready <= 0) continue;
    if (pfds[0].revents & POLLIN) serve_udp_datagram();
    if (count == 2 && (pfds[1].revents & POLLIN)) serve_tcp_connection();
  }
}

}  // namespace dnslocate::sockets
