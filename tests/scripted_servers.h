// Loopback DNS servers whose per-query behaviour is a test-supplied script,
// so a suite can send from the wrong socket, re-case the echo, time a
// duplicate around the collection window or go silent — things no
// well-behaved DnsResponder does. CornerServer speaks UDP, TcpCornerServer
// RFC 7766 framed TCP (one connection at a time). Test-only.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "netbase/arena.h"
#include "netbase/endpoint.h"

namespace dnslocate::testutil {

class CornerServer {
 public:
  using Script = std::function<void(CornerServer&, const dnswire::Message&,
                                    const sockaddr_storage&, socklen_t)>;

  explicit CornerServer(Script script) : script_(std::move(script)) {
    fd_ = bind_loopback(&port_);
    decoy_fd_ = bind_loopback(nullptr);
    thread_ = std::thread([this] { serve(); });
  }

  ~CornerServer() {
    running_.store(false);
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) ::close(fd_);
    if (decoy_fd_ >= 0) ::close(decoy_fd_);
  }

  CornerServer(const CornerServer&) = delete;
  CornerServer& operator=(const CornerServer&) = delete;

  [[nodiscard]] netbase::Endpoint endpoint() const {
    return netbase::Endpoint{netbase::Ipv4Address(127, 0, 0, 1), port_};
  }

  /// Send `message` back to the querying client — from the queried socket,
  /// or (wrong_source) from a second socket bound to a different port.
  void send(const dnswire::Message& message, const sockaddr_storage& to, socklen_t to_len,
            bool wrong_source = false) {
    auto wire = dnswire::encode_message(message);
    ::sendto(wrong_source ? decoy_fd_ : fd_, wire.data(), wire.size(), 0,
             reinterpret_cast<const sockaddr*>(&to), to_len);
  }

 private:
  static int bind_loopback(std::uint16_t* port_out) {
    int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) throw std::runtime_error("CornerServer: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd);
      throw std::runtime_error("CornerServer: bind() failed");
    }
    if (port_out != nullptr) {
      socklen_t len = sizeof addr;
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
      *port_out = ntohs(addr.sin_port);
    }
    return fd;
  }

  void serve() {
    // The thread owns the arena its wire buffers park in: a thread's
    // fallback arena is leaked at exit (netbase/arena.h).
    netbase::ByteArena arena;
    netbase::ScopedArena scoped(arena);
    while (running_.load()) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      std::uint8_t buffer[4096];
      sockaddr_storage from{};
      socklen_t from_len = sizeof from;
      ssize_t n = ::recvfrom(fd_, buffer, sizeof buffer, 0,
                             reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n <= 0) continue;
      auto query = dnswire::decode_message({buffer, static_cast<std::size_t>(n)});
      if (!query) continue;
      script_(*this, *query, from, from_len);
    }
  }

  Script script_;
  int fd_ = -1;
  int decoy_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{true};
  std::thread thread_;
};

class TcpCornerServer {
 public:
  using Script = std::function<void(TcpCornerServer&, const dnswire::Message&)>;

  explicit TcpCornerServer(Script script) : script_(std::move(script)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("TcpCornerServer: socket() failed");
    int on = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof on);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(listen_fd_, 4) < 0) {
      ::close(listen_fd_);
      throw std::runtime_error("TcpCornerServer: bind/listen failed");
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~TcpCornerServer() {
    running_.store(false);
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  TcpCornerServer(const TcpCornerServer&) = delete;
  TcpCornerServer& operator=(const TcpCornerServer&) = delete;

  [[nodiscard]] netbase::Endpoint endpoint() const {
    return netbase::Endpoint{netbase::Ipv4Address(127, 0, 0, 1), port_};
  }

  /// Send one RFC 7766 framed message on the live connection.
  void send(const dnswire::Message& message) {
    auto wire = dnswire::encode_message(message);
    std::vector<std::uint8_t> framed;
    framed.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
    framed.push_back(static_cast<std::uint8_t>(wire.size() & 0xff));
    framed.insert(framed.end(), wire.begin(), wire.end());
    ::send(client_fd_, framed.data(), framed.size(), MSG_NOSIGNAL);
  }

  /// Keep the live connection open and unanswered until the client closes
  /// it (or the server stops): a server that took the query and went silent.
  void hold_until_closed() {
    while (running_.load()) {
      pollfd p{client_fd_, POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      std::uint8_t byte;
      if (::recv(client_fd_, &byte, 1, 0) <= 0) return;
    }
  }

 private:
  bool read_exact(int fd, std::uint8_t* data, std::size_t size) {
    std::size_t got = 0;
    while (got < size && running_.load()) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      ssize_t n = ::recv(fd, data + got, size - got, 0);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return got == size;
  }

  void serve() {
    // The thread owns the arena its wire buffers park in: a thread's
    // fallback arena is leaked at exit (netbase/arena.h).
    netbase::ByteArena arena;
    netbase::ScopedArena scoped(arena);
    while (running_.load()) {
      pollfd p{listen_fd_, POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      client_fd_ = ::accept(listen_fd_, nullptr, nullptr);
      if (client_fd_ < 0) continue;
      std::uint8_t prefix[2];
      if (read_exact(client_fd_, prefix, 2)) {
        std::size_t length = static_cast<std::size_t>(prefix[0]) << 8 | prefix[1];
        std::vector<std::uint8_t> body(length);
        if (read_exact(client_fd_, body.data(), length)) {
          auto query = dnswire::decode_message({body.data(), body.size()});
          if (query) script_(*this, *query);
        }
      }
      ::close(client_fd_);
      client_fd_ = -1;
    }
  }

  Script script_;
  int listen_fd_ = -1;
  int client_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{true};
  std::thread thread_;
};

}  // namespace dnslocate::testutil
