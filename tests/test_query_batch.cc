// The batch layer's contracts: QueryBatch slot bookkeeping, the
// SequentialTransport's exact-sequential-loop semantics, the seeded
// transaction-ID streams the stage builders draw from, and the timer wheel
// that drives the async engine's deadlines.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "core/detector.h"
#include "core/query_batch.h"
#include "dnswire/debug_queries.h"
#include "sockets/timer_wheel.h"

namespace dnslocate {
namespace {

using namespace std::chrono_literals;

/// Answers every query instantly by echoing it back, recording the call
/// order — a microscope for what an engine actually sends, and when.
class RecordingTransport final : public core::SequentialTransport {
 public:
  core::QueryResult query(const netbase::Endpoint& server, const dnswire::Message& message,
                          const core::QueryOptions& options) override {
    (void)options;
    ids.push_back(message.id);
    servers.push_back(server);
    core::QueryResult result;
    result.retry.attempts = 1;
    if (answer) {
      result.status = core::QueryResult::Status::answered;
      result.response = message;  // an echo is enough for slot checks
      result.rtt = std::chrono::microseconds(ids.size());
    } else {
      result.retry.timeouts = 1;
    }
    record_telemetry(result);
    return result;
  }

  [[nodiscard]] bool supports_family(netbase::IpFamily) const override { return true; }

  bool answer = true;
  std::vector<std::uint16_t> ids;
  std::vector<netbase::Endpoint> servers;
};

netbase::Endpoint endpoint(std::uint16_t port) {
  return {*netbase::IpAddress::parse("192.0.2.1"), port};
}

TEST(QueryBatch, SlotsCorrelateSpecsAndResultsByIndex) {
  core::QueryBatch batch;
  EXPECT_TRUE(batch.empty());

  auto first = dnswire::make_query(0x1111, *dnswire::DnsName::parse("a.example"),
                                   dnswire::RecordType::A);
  auto second = dnswire::make_query(0x2222, *dnswire::DnsName::parse("b.example"),
                                    dnswire::RecordType::A);
  EXPECT_EQ(batch.add(endpoint(53), first), 0u);
  EXPECT_EQ(batch.add(endpoint(5353), second), 1u);
  ASSERT_EQ(batch.size(), 2u);

  EXPECT_EQ(batch.spec(0).message.id, 0x1111);
  EXPECT_EQ(batch.spec(1).message.id, 0x2222);
  EXPECT_EQ(batch.spec(1).server.port, 5353);

  // Fresh slots report timeouts until an engine fills them.
  EXPECT_FALSE(batch.result(0).answered());
  batch.result(1).status = core::QueryResult::Status::answered;
  EXPECT_TRUE(batch.result(1).answered());
  EXPECT_FALSE(batch.result(0).answered());

  EXPECT_FALSE(batch.drained());
  batch.mark_drained();
  EXPECT_TRUE(batch.drained());
}

TEST(QueryBatch, SequentialTransportRunsInSubmissionOrderAndFillsEverySlot) {
  RecordingTransport transport;
  EXPECT_EQ(&transport.transport(), static_cast<core::QueryTransport*>(&transport));

  core::QueryBatch batch;
  for (std::uint16_t i = 0; i < 5; ++i)
    batch.add(endpoint(static_cast<std::uint16_t>(1000 + i)),
              dnswire::make_query(static_cast<std::uint16_t>(0x4000 + i),
                                  *dnswire::DnsName::parse("seq.example"),
                                  dnswire::RecordType::A));
  transport.run(batch);

  // Exactly the historical loop: one query() per spec, in submission order.
  ASSERT_EQ(transport.ids.size(), 5u);
  for (std::uint16_t i = 0; i < 5; ++i) {
    EXPECT_EQ(transport.ids[i], 0x4000 + i);
    EXPECT_EQ(transport.servers[i].port, 1000 + i);
    ASSERT_TRUE(batch.result(i).answered());
    EXPECT_EQ(batch.result(i).response->id, 0x4000 + i);
  }
  EXPECT_EQ(transport.telemetry().queries, 5u);
  EXPECT_EQ(transport.telemetry().answered, 5u);
}

TEST(QueryBatch, SequentialTransportNeverMarksDrained) {
  // Per-query cancellation semantics belong to the subclass's query(); the
  // base reports every slot as executed, even when all of them time out
  // under a cancelled token — that is what the pre-batch loop did.
  RecordingTransport transport;
  transport.answer = false;

  core::QueryOptions cancelled;
  cancelled.cancel = core::CancelToken::manual();
  cancelled.cancel.cancel();
  core::QueryBatch batch;
  batch.add(endpoint(53),
            dnswire::make_query(1, *dnswire::DnsName::parse("x.example"),
                                dnswire::RecordType::A),
            cancelled);
  batch.add(endpoint(53),
            dnswire::make_query(2, *dnswire::DnsName::parse("y.example"),
                                dnswire::RecordType::A),
            cancelled);
  transport.run(batch);

  EXPECT_FALSE(batch.drained());
  EXPECT_EQ(transport.ids.size(), 2u);  // both were handed to the transport
  EXPECT_FALSE(batch.result(0).answered());
  EXPECT_FALSE(batch.result(1).answered());
}

TEST(QueryBatch, QueryOneIsABatchOfOne) {
  RecordingTransport transport;
  auto result = core::query_one(
      transport, endpoint(853),
      dnswire::make_query(0x5151, *dnswire::DnsName::parse("one.example"),
                          dnswire::RecordType::A));
  ASSERT_TRUE(result.answered());
  EXPECT_EQ(result.response->id, 0x5151);
  ASSERT_EQ(transport.servers.size(), 1u);
  EXPECT_EQ(transport.servers[0].port, 853);
  EXPECT_EQ(transport.telemetry().queries, 1u);
}

TEST(QueryBatch, RandomQueryIdStreamReplaysFromSeed) {
  simnet::Rng a(0xfeedULL);
  simnet::Rng b(0xfeedULL);
  simnet::Rng c(0xbeefULL);
  std::vector<std::uint16_t> from_a, from_b, from_c;
  for (int i = 0; i < 16; ++i) {
    from_a.push_back(core::random_query_id(a));
    from_b.push_back(core::random_query_id(b));
    from_c.push_back(core::random_query_id(c));
  }
  EXPECT_EQ(from_a, from_b);   // same seed -> bit-identical replay
  EXPECT_NE(from_a, from_c);   // different seed -> different stream
}

TEST(QueryBatch, DetectorIdsAreSeededUnpredictableAndReplayable) {
  // The stage builder draws every transaction ID from its configured seed:
  // two runs with the same seed put identical IDs on the wire; a different
  // seed shifts the whole stream (the paper's hard-to-spoof requirement,
  // without losing replayability).
  auto ids_with_seed = [](std::uint64_t id_seed) {
    core::InterceptionDetector::Config config;
    config.test_v6 = false;
    config.use_secondary_addresses = false;
    config.id_seed = id_seed;
    RecordingTransport transport;
    core::InterceptionDetector(config).run(transport);
    return transport.ids;
  };

  auto first = ids_with_seed(42);
  auto replay = ids_with_seed(42);
  auto other = ids_with_seed(43);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, replay);
  EXPECT_NE(first, other);
  // IDs within one run must not collide (demux would be ambiguous).
  for (std::size_t i = 0; i < first.size(); ++i)
    for (std::size_t j = i + 1; j < first.size(); ++j)
      EXPECT_NE(first[i], first[j]) << "slots " << i << " and " << j;
}

TEST(TimerWheel, OrdersDeadlinesAndDisarmsDueKeys) {
  sockets::TimerWheel wheel;
  EXPECT_TRUE(wheel.empty());
  EXPECT_FALSE(wheel.next_deadline().has_value());

  auto t0 = sockets::TimerWheel::Clock::now();
  wheel.schedule(1, t0 + 30ms);
  wheel.schedule(2, t0 + 120ms);
  EXPECT_EQ(wheel.size(), 2u);
  EXPECT_EQ(*wheel.next_deadline(), t0 + 30ms);

  auto due = wheel.advance(t0 + 50ms);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 1u);
  EXPECT_EQ(wheel.size(), 1u);  // due keys are disarmed on return
  EXPECT_EQ(*wheel.next_deadline(), t0 + 120ms);

  due = wheel.advance(t0 + 200ms);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 2u);
  EXPECT_TRUE(wheel.empty());
  EXPECT_TRUE(wheel.advance(t0 + 300ms).empty());
}

TEST(TimerWheel, RescheduleSupersedesAndStaleEntriesDieLazily) {
  sockets::TimerWheel wheel;
  auto t0 = sockets::TimerWheel::Clock::now();
  wheel.schedule(7, t0 + 100ms);
  wheel.schedule(7, t0 + 40ms);  // re-arm earlier: one live deadline per key
  EXPECT_EQ(wheel.size(), 1u);
  EXPECT_EQ(*wheel.next_deadline(), t0 + 40ms);

  auto due = wheel.advance(t0 + 60ms);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 7u);
  // The stale 100ms entry must not resurrect the key.
  EXPECT_TRUE(wheel.advance(t0 + 150ms).empty());
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, CancelRemovesTheKeyBeforeItFires) {
  sockets::TimerWheel wheel;
  auto t0 = sockets::TimerWheel::Clock::now();
  wheel.schedule(3, t0 + 20ms);
  wheel.schedule(4, t0 + 25ms);
  wheel.cancel(3);
  wheel.cancel(99);  // cancelling an unknown key is a no-op
  EXPECT_EQ(wheel.size(), 1u);

  auto due = wheel.advance(t0 + 80ms);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 4u);
}

}  // namespace
}  // namespace dnslocate
