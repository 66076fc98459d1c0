// Shared helpers for the measurement-service suites: a tiny blocking HTTP
// client (tests may block; the daemon may not), chunked-response decoding,
// and scratch-directory plumbing. Test-only — nothing here ships in a
// library, so the service's non-blocking rules do not apply.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dnslocate::testutil {

struct HttpReply {
  int status = 0;
  std::map<std::string, std::string> headers;  // keys lower-cased
  std::string body;                            // chunked bodies already decoded
  bool ok = false;                             // transport + parse succeeded
};

inline std::string lower(std::string text) {
  for (char& c : text) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return text;
}

/// Decode a chunked transfer-encoding body; returns false on framing errors.
inline bool decode_chunked(const std::string& wire, std::string* out) {
  std::size_t pos = 0;
  while (pos < wire.size()) {
    std::size_t line_end = wire.find("\r\n", pos);
    if (line_end == std::string::npos) return false;
    unsigned long size = std::strtoul(wire.substr(pos, line_end - pos).c_str(), nullptr, 16);
    pos = line_end + 2;
    if (size == 0) return true;  // final chunk
    if (pos + size > wire.size()) return false;
    out->append(wire, pos, size);
    pos += size + 2;  // skip chunk CRLF
  }
  return false;
}

/// One blocking HTTP/1.1 exchange against 127.0.0.1:port. Reads to EOF (the
/// server always answers Connection: close) and decodes chunked bodies.
inline HttpReply http_request(std::uint16_t port, const std::string& method,
                              const std::string& target, const std::string& body = "") {
  HttpReply reply;
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return reply;
  }
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty())
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  request += "Connection: close\r\n\r\n" + body;
  const char* data = request.data();
  std::size_t remaining = request.size();
  while (remaining > 0) {
    ssize_t sent = send(fd, data, remaining, 0);
    if (sent <= 0) {
      close(fd);
      return reply;
    }
    data += sent;
    remaining -= static_cast<std::size_t>(sent);
  }
  std::string wire;
  char buffer[16 * 1024];
  for (;;) {
    ssize_t got = recv(fd, buffer, sizeof buffer, 0);
    if (got > 0) {
      wire.append(buffer, static_cast<std::size_t>(got));
    } else if (got == 0) {
      break;
    } else if (errno != EINTR) {
      break;
    }
  }
  close(fd);

  std::size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos) return reply;
  std::istringstream head(wire.substr(0, head_end));
  std::string line;
  if (!std::getline(head, line)) return reply;
  if (line.size() < 12 || line.compare(0, 5, "HTTP/") != 0) return reply;
  reply.status = std::atoi(line.substr(9, 3).c_str());
  while (std::getline(head, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) line.pop_back();
    std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(value.begin());
    reply.headers[lower(line.substr(0, colon))] = value;
  }
  std::string raw_body = wire.substr(head_end + 4);
  if (reply.headers.count("transfer-encoding") != 0) {
    if (!decode_chunked(raw_body, &reply.body)) return reply;
  } else {
    reply.body = std::move(raw_body);
  }
  reply.ok = true;
  return reply;
}

/// A fresh /tmp/dnslocate-<tag>-XXXXXX directory that is removed, with
/// everything in it, when the object goes out of scope. Declare it before
/// anything that writes into it, so the state a test inspects stays until
/// the test ends. When mkdtemp fails the constructor throws, which fails the
/// test: the destructor only ever removes a directory this object created.
class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    std::string pattern = "/tmp/dnslocate-";
    pattern += tag;
    pattern += "-XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    if (mkdtemp(buffer.data()) == nullptr)
      throw std::runtime_error("mkdtemp(" + pattern + ") failed: " + std::strerror(errno));
    path_ = buffer.data();
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Wait for a daemon's --port-file to appear and carry a port.
inline std::uint16_t wait_for_port_file(const std::string& path,
                                        std::chrono::seconds timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream file(path);
    int port = 0;
    if (file >> port && port > 0) return static_cast<std::uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return 0;
}

}  // namespace dnslocate::testutil
