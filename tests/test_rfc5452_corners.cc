// RFC 5452 acceptance corners, exercised as one shared corpus across all
// three engines: SimTransport (adversary knobs on a scenario world),
// UdpEngine (shared-socket demux) and TcpTransport (RFC 7766 framed
// stream). The corners:
//
//   wrong_source             response from an endpoint other than the
//                            queried server — rejected, spoof-suspected;
//   case_mismatch            echoed question re-cased in path — accepted
//                            (RFC 5452 compares names case-insensitively)
//                            but counted as 0x20 evidence;
//   duplicate_inside_window  conflicting second answer inside the
//                            duplicate-collection window — surfaced as a
//                            conflict for the classifier;
//   duplicate_after_window   conflicting second answer after the window —
//                            never reaches the result; the shared-socket
//                            engine also *counts* the drop.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "atlas/scenario.h"
#include "core/pipeline.h"
#include "core/query_batch.h"
#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "netbase/arena.h"
#include "simnet/adversary.h"
#include "sockets/tcp_transport.h"
#include "sockets/udp_engine.h"

namespace dnslocate::sockets {
namespace {

// ---------------------------------------------------------------------------
// The shared corner table.

enum class Corner {
  wrong_source,
  case_mismatch,
  duplicate_inside_window,
  duplicate_after_window,
};

struct CornerExpectation {
  const char* name;
  bool answered;
  bool spoof_suspected;  // arbitration.spoof_suspected >= 1
  bool case_mismatch;    // arbitration.case_mismatches >= 1
  bool conflict;         // arbitration.conflicts >= 1
};

const CornerExpectation& expectation(Corner corner) {
  static const CornerExpectation table[] = {
      {"wrong_source", false, true, false, false},
      {"case_mismatch", true, false, true, false},
      {"duplicate_inside_window", true, false, false, true},
      {"duplicate_after_window", true, false, false, false},
  };
  return table[static_cast<std::size_t>(corner)];
}

void expect_corner(Corner corner, const core::QueryResult& result, const char* transport_name) {
  const CornerExpectation& e = expectation(corner);
  std::string label = std::string(transport_name) + " / " + e.name;
  EXPECT_EQ(result.answered(), e.answered) << label;
  if (e.spoof_suspected)
    EXPECT_GE(result.arbitration.spoof_suspected, 1u) << label;
  else
    EXPECT_EQ(result.arbitration.spoof_suspected, 0u) << label;
  if (e.case_mismatch)
    EXPECT_GE(result.arbitration.case_mismatches, 1u) << label;
  else
    EXPECT_EQ(result.arbitration.case_mismatches, 0u) << label;
  if (e.conflict) {
    EXPECT_GE(result.arbitration.conflicts, 1u) << label;
    EXPECT_EQ(result.all_responses.size(), 2u) << label;
  } else {
    EXPECT_EQ(result.arbitration.conflicts, 0u) << label;
  }
}

// ---------------------------------------------------------------------------
// A raw UDP responder whose per-query behaviour is scripted, so each corner
// can send from the wrong socket, re-case the echo, or time a duplicate
// around the collection window — things no well-behaved DnsResponder does.

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

dnswire::DnsName lowercased(const dnswire::DnsName& name) {
  std::vector<std::string> labels = name.labels();
  for (auto& label : labels)
    for (auto& c : label) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return *dnswire::DnsName::from_labels(std::move(labels));
}

CornerServer::Script script_for(Corner corner) {
  switch (corner) {
    case Corner::wrong_source:
      return [](CornerServer& s, const dnswire::Message& q, const sockaddr_storage& to,
                socklen_t len) {
        s.send(dnswire::make_response(q), to, len, /*wrong_source=*/true);
      };
    case Corner::case_mismatch:
      return [](CornerServer& s, const dnswire::Message& q, const sockaddr_storage& to,
                socklen_t len) {
        auto response = dnswire::make_response(q);
        response.questions.front().name = lowercased(response.questions.front().name);
        s.send(response, to, len);
      };
    case Corner::duplicate_inside_window:
      return [](CornerServer& s, const dnswire::Message& q, const sockaddr_storage& to,
                socklen_t len) {
        s.send(dnswire::make_response(q), to, len);
        s.send(dnswire::make_response(q, dnswire::Rcode::NXDOMAIN), to, len);
      };
    case Corner::duplicate_after_window:
      return [](CornerServer& s, const dnswire::Message& q, const sockaddr_storage& to,
                socklen_t len) {
        s.send(dnswire::make_response(q), to, len);
        // Outlive the client's 50 ms duplicate window by a wide margin
        // before the conflicting duplicate goes out.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        s.send(dnswire::make_response(q, dnswire::Rcode::NXDOMAIN), to, len);
      };
  }
  return {};
}

/// Mixed-case question so a re-cased echo differs byte-wise from the sent
/// name (the byte-exact comparison behind the case_mismatches tally).
dnswire::Message corner_query(std::uint16_t id) {
  return dnswire::make_query(id, *dnswire::DnsName::parse("RfC.FiveFourFiveTwo.Test"),
                             dnswire::RecordType::A);
}

core::QueryResult run_corner(core::AsyncQueryTransport& engine, Corner corner,
                             std::chrono::milliseconds timeout) {
  CornerServer server(script_for(corner));
  core::QueryOptions options;
  options.timeout = timeout;
  return core::query_one(engine, server.endpoint(), corner_query(0x2b1d), options);
}

// ---------------------------------------------------------------------------
// UdpEngine: every query of a batch multiplexed over one shared socket.

TEST(Rfc5452CornersUdpEngine, SharedCorpus) {
  for (Corner corner : {Corner::wrong_source, Corner::case_mismatch,
                        Corner::duplicate_inside_window}) {
    UdpEngine engine;
    auto result = run_corner(engine, corner, std::chrono::milliseconds(400));
    expect_corner(corner, result, "UdpEngine");
  }
}

TEST(Rfc5452CornersUdpEngine, DuplicateAfterWindowNeverReachesTheResult) {
  UdpEngine::Config config;
  config.duplicate_window = std::chrono::milliseconds(50);
  UdpEngine engine(config);
  auto result = run_corner(engine, Corner::duplicate_after_window,
                           std::chrono::milliseconds(1000));
  expect_corner(Corner::duplicate_after_window, result, "UdpEngine");
  // A batch of one closes its socket when the window ends: the straggler
  // has nowhere to land and the accepted answer stands alone.
  EXPECT_EQ(result.all_responses.size(), 1u);
}

TEST(Rfc5452CornersUdpEngine, DuplicateAfterWindowIsDroppedAndCounted) {
  // Query 0's server answers, then sends a conflicting duplicate well after
  // the 50 ms window; query 1's server stalls so the shared socket is still
  // open when the straggler lands. Unlike a batch of one (whose closed
  // socket simply unreceives it), the engine must drop the duplicate AND
  // count it: its transaction is retired, not unknown.
  CornerServer corner(script_for(Corner::duplicate_after_window));
  CornerServer slow([](CornerServer& s, const dnswire::Message& q, const sockaddr_storage& to,
                       socklen_t len) {
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
    s.send(dnswire::make_response(q), to, len);
  });

  UdpEngine::Config config;
  config.duplicate_window = std::chrono::milliseconds(50);
  UdpEngine engine(config);

  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(2000);
  core::QueryBatch batch;
  batch.add(corner.endpoint(), corner_query(0x7001), options);
  batch.add(slow.endpoint(), corner_query(0x7002), options);
  engine.run(batch);

  expect_corner(Corner::duplicate_after_window, batch.result(0), "UdpEngine");
  EXPECT_EQ(batch.result(0).all_responses.size(), 1u);
  EXPECT_TRUE(batch.result(1).answered());
  EXPECT_GE(engine.telemetry().late_duplicates, 1u)
      << "late duplicate to a retired transaction must be counted, not silently ignored";
}

// ---------------------------------------------------------------------------
// TcpTransport: the corpus over a loopback RFC 7766 stream. A connected
// stream pins the source endpoint, so the off-path corner maps onto what an
// in-path middlebox can actually do to a stream: answer with the wrong
// transaction ID. The kernel tallies that frame exactly like a UDP
// off-path guess (spoof_suspected) and keeps listening.

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

TcpCornerServer::Script tcp_script_for(Corner corner) {
  switch (corner) {
    case Corner::wrong_source:
      // The stream analogue of an off-path forgery: a frame whose
      // transaction ID is not the one we asked with.
      return [](TcpCornerServer& s, const dnswire::Message& q) {
        auto response = dnswire::make_response(q);
        response.id = static_cast<std::uint16_t>(response.id ^ 0x55aa);
        s.send(response);
      };
    case Corner::case_mismatch:
      return [](TcpCornerServer& s, const dnswire::Message& q) {
        auto response = dnswire::make_response(q);
        response.questions.front().name = lowercased(response.questions.front().name);
        s.send(response);
      };
    case Corner::duplicate_inside_window:
      // Two frames back to back on the same stream: a pipelining rewriter
      // contesting its own first answer.
      return [](TcpCornerServer& s, const dnswire::Message& q) {
        s.send(dnswire::make_response(q));
        s.send(dnswire::make_response(q, dnswire::Rcode::NXDOMAIN));
      };
    case Corner::duplicate_after_window:
      break;  // a closed connection has no after-window straggler path
  }
  return {};
}

TEST(Rfc5452CornersTcpTransport, SharedCorpus) {
  for (Corner corner : {Corner::wrong_source, Corner::case_mismatch,
                        Corner::duplicate_inside_window}) {
    TcpCornerServer server(tcp_script_for(corner));
    TcpTransport transport;
    core::QueryOptions options;
    options.timeout = std::chrono::milliseconds(400);
    auto result = core::query_one(transport, server.endpoint(), corner_query(0x2b1d), options);
    expect_corner(corner, result, "TcpTransport");
  }
}

TEST(Rfc5452CornersTcpTransport, ClosedConnectionEndsTheDuplicateWindowEarly) {
  // A server that closes after one answer costs the client nothing: the
  // duplicate-collection window ends at the FIN, not at the timer.
  TcpCornerServer server([](TcpCornerServer& s, const dnswire::Message& q) {
    s.send(dnswire::make_response(q));
  });
  TcpTransport::Config config;
  config.duplicate_window = std::chrono::milliseconds(5000);
  TcpTransport transport(config);
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(2000);
  auto started = std::chrono::steady_clock::now();
  auto result = core::query_one(transport, server.endpoint(), corner_query(0x2b1d), options);
  auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_TRUE(result.answered());
  EXPECT_EQ(result.all_responses.size(), 1u);
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
}

// ---------------------------------------------------------------------------
// SimTransport: the same corners driven by the adversary knobs on a clean
// scenario world, asserted through the pipeline's telemetry delta.

core::ProbeVerdict run_sim(const atlas::ScenarioConfig& config) {
  atlas::Scenario scenario(config);
  core::LocalizationPipeline pipeline(scenario.pipeline_config());
  return pipeline.run(scenario.transport());
}

TEST(Rfc5452CornersSim, WrongSourceEndpointIsRejected) {
  atlas::ScenarioConfig config;
  simnet::SpooferConfig spoofer;
  spoofer.forge_source = true;
  config.adversary.transit_spoofer = spoofer;
  auto verdict = run_sim(config);
  // The forgery is sourced from the wrong egress: it dies before acceptance
  // and never contests the genuine answers.
  EXPECT_EQ(verdict.telemetry.conflicts, 0u);
  EXPECT_EQ(verdict.location, core::InterceptorLocation::not_intercepted);
}

TEST(Rfc5452CornersSim, CaseMismatchIsAcceptedAndCounted) {
  atlas::ScenarioConfig config;
  config.adversary.isp_dpi = simnet::dpi_foldix();
  // The stock location queries are all-lowercase, so folding them is a
  // byte-identity: the corner needs a mixed-case question, which is exactly
  // the fingerprint prober's 0x20 probe.
  config.run_fingerprint = true;
  auto verdict = run_sim(config);
  // The case-folded echo still passes RFC 5452 (names compare
  // case-insensitively) so the answer flows — but it is tallied as 0x20
  // evidence and surfaces in the fingerprint.
  EXPECT_GT(verdict.telemetry.answered, 0u);
  EXPECT_GE(verdict.telemetry.case_mismatches, 1u);
  EXPECT_EQ(verdict.telemetry.conflicts, 0u);
  EXPECT_EQ(verdict.location, core::InterceptorLocation::not_intercepted);
  ASSERT_TRUE(verdict.fingerprint.has_value());
  EXPECT_TRUE(verdict.fingerprint->case_folded);
}

TEST(Rfc5452CornersSim, DuplicateInsideWindowSurfacesConflict) {
  atlas::ScenarioConfig config;
  config.adversary.transit_spoofer = simnet::SpooferConfig{};  // on-path race
  auto verdict = run_sim(config);
  EXPECT_GE(verdict.telemetry.conflicts, 1u);
  EXPECT_EQ(verdict.location, core::InterceptorLocation::contested);
}

TEST(Rfc5452CornersSim, DuplicateAfterWindowIsDropped) {
  atlas::ScenarioConfig config;
  simnet::SpooferConfig spoofer;
  // SimTransport collects to the attempt's full timeout horizon (3 s):
  // inject well past it, after the client port is unbound.
  spoofer.injection_delay = std::chrono::seconds(5);
  config.adversary.transit_spoofer = spoofer;
  atlas::Scenario scenario(config);
  core::LocalizationPipeline pipeline(scenario.pipeline_config());
  auto verdict = pipeline.run(scenario.transport());
  ASSERT_NE(scenario.spoofer(), nullptr);
  EXPECT_GT(scenario.spoofer()->injections(), 0u);
  EXPECT_EQ(verdict.telemetry.conflicts, 0u);
  EXPECT_EQ(verdict.location, core::InterceptorLocation::not_intercepted);
}

}  // namespace
}  // namespace dnslocate::sockets
