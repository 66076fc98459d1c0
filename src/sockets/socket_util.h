// POSIX socket plumbing shared by the sockets library's engines (internal:
// not installed, not included outside src/sockets/).
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "netbase/endpoint.h"

namespace dnslocate::sockets {

/// Owning file descriptor: closed on destruction or reset.
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

/// Fill `storage` with `endpoint` in its native sockaddr form; returns the
/// length to pass to connect()/sendto().
inline socklen_t to_sockaddr(const netbase::Endpoint& endpoint, sockaddr_storage& storage) {
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

}  // namespace dnslocate::sockets
