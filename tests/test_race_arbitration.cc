// Answer arbitration under genuinely concurrent senders. A flood server
// answers every query from two sender threads at once — an accepted answer,
// a byte-identical duplicate, and a conflicting rcode racing each other
// into UdpEngine's shared socket. Run under ThreadSanitizer in CI: the
// interesting surface is the engine's receive/demux loop and the
// process-wide metrics registry with responders (and a second engine)
// racing it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/query_batch.h"
#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "netbase/arena.h"
#include "sockets/udp_engine.h"

namespace dnslocate::sockets {
namespace {

/// Answers each query from two concurrent sender threads sharing one
/// socket: thread 0 sends the genuine NOERROR answer twice (the second is
/// a byte-identical duplicate the client must deduplicate), thread 1 sends
/// a conflicting NXDOMAIN for the same transaction.
class FloodServer {
 public:
  FloodServer() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) throw std::runtime_error("FloodServer: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      throw std::runtime_error("FloodServer: bind() failed");
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    recv_thread_ = std::thread([this] { recv_loop(); });
    for (std::size_t k = 0; k < kSenders; ++k)
      senders_.emplace_back([this, k] { sender_loop(k); });
  }

  ~FloodServer() {
    running_.store(false);
    cv_.notify_all();
    if (recv_thread_.joinable()) recv_thread_.join();
    for (auto& t : senders_)
      if (t.joinable()) t.join();
    if (fd_ >= 0) ::close(fd_);
  }

  FloodServer(const FloodServer&) = delete;
  FloodServer& operator=(const FloodServer&) = delete;

  [[nodiscard]] netbase::Endpoint endpoint() const {
    return netbase::Endpoint{netbase::Ipv4Address(127, 0, 0, 1), port_};
  }

 private:
  static constexpr std::size_t kSenders = 2;

  struct Job {
    dnswire::Message query;
    sockaddr_storage to;
    socklen_t to_len;
  };

  void recv_loop() {
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
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& queue : jobs_) queue.push_back(Job{*query, from, from_len});
      }
      cv_.notify_all();
    }
  }

  void sender_loop(std::size_t k) {
    // The thread owns the arena its wire buffers park in: a thread's
    // fallback arena is leaked at exit (netbase/arena.h).
    netbase::ByteArena arena;
    netbase::ScopedArena scoped(arena);
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return !jobs_[k].empty() || !running_.load(); });
        if (jobs_[k].empty()) return;  // shutting down
        job = std::move(jobs_[k].front());
        jobs_[k].pop_front();
      }
      if (k == 0) {
        send(dnswire::make_response(job.query), job);
        send(dnswire::make_response(job.query), job);  // byte-identical dup
      } else {
        send(dnswire::make_response(job.query, dnswire::Rcode::NXDOMAIN), job);
      }
    }
  }

  void send(const dnswire::Message& message, const Job& job) {
    auto wire = dnswire::encode_message(message);
    // Concurrent sendto on the shared fd is deliberate: both senders race
    // into the engine's single receive loop.
    ::sendto(fd_, wire.data(), wire.size(), 0, reinterpret_cast<const sockaddr*>(&job.to),
             job.to_len);
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{true};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Job> jobs_[kSenders];
  std::thread recv_thread_;
  std::vector<std::thread> senders_;
};

dnswire::Message flood_query(std::uint16_t id) {
  return dnswire::make_query(id, *dnswire::DnsName::parse("race.arbitration.test"),
                             dnswire::RecordType::A);
}

TEST(RaceArbitration, ConcurrentConflictingAnswersAreArbitratedExactly) {
  FloodServer server;
  UdpEngine engine;

  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(2000);
  core::QueryBatch batch;
  constexpr std::size_t kQueries = 8;
  for (std::size_t i = 0; i < kQueries; ++i)
    batch.add(server.endpoint(), flood_query(static_cast<std::uint16_t>(0x4100 + i)), options);
  engine.run(batch);

  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto& result = batch.result(i);
    ASSERT_TRUE(result.answered()) << "query " << i;
    // Whatever the arrival interleaving, arbitration must converge on the
    // same evidence: one accepted answer, one conflicting rcode, and the
    // byte-identical duplicate folded away.
    EXPECT_GE(result.arbitration.conflicts, 1u) << "query " << i;
    EXPECT_EQ(result.all_responses.size(), 2u) << "query " << i;
    EXPECT_TRUE(result.contested()) << "query " << i;
  }
  EXPECT_GE(engine.telemetry().conflicts, kQueries);
}

TEST(RaceArbitration, TwoEnginesShareTheProcessSafely) {
  // Two engines in two threads against the same flood server: exercises the
  // process-wide metrics registry (static counters in note_transport_metrics)
  // and the per-engine demux state under real parallelism.
  FloodServer server;

  auto run_one = [&](std::uint16_t id_base, std::size_t* conflicted) {
    netbase::ByteArena arena;  // this thread's wire buffers (see sender_loop)
    netbase::ScopedArena scoped(arena);
    UdpEngine engine;
    core::QueryOptions options;
    options.timeout = std::chrono::milliseconds(2000);
    core::QueryBatch batch;
    for (std::size_t i = 0; i < 4; ++i)
      batch.add(server.endpoint(), flood_query(static_cast<std::uint16_t>(id_base + i)), options);
    engine.run(batch);
    std::size_t count = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      if (!batch.result(i).answered()) continue;
      if (batch.result(i).contested()) ++count;
    }
    *conflicted = count;
  };

  std::size_t conflicted_a = 0;
  std::size_t conflicted_b = 0;
  std::thread a([&] { run_one(0x5100, &conflicted_a); });
  std::thread b([&] { run_one(0x6100, &conflicted_b); });
  a.join();
  b.join();

  EXPECT_EQ(conflicted_a, 4u);
  EXPECT_EQ(conflicted_b, 4u);
}

}  // namespace
}  // namespace dnslocate::sockets
