// Retry policy tests: backoff schedule, per-attempt query re-randomization
// (fresh transaction ID + fresh 0x20 casing), attempt accounting — and the
// §3.3 regression: retries must never convert injected loss into a false
// verdict; an unanswerable bogon probe stays "unknown".
#include <gtest/gtest.h>

#include "atlas/scenario.h"
#include "core/retry.h"
#include "core/sim_transport.h"
#include "dnswire/decoder.h"
#include "dnswire/encoder.h"

namespace dnslocate::core {
namespace {

using dnswire::DnsName;
using dnswire::RecordType;

netbase::IpAddress ip(const char* text) { return *netbase::IpAddress::parse(text); }

TEST(RetryPolicy, BackoffIsGeometricAndCapped) {
  auto policy = RetryPolicy::standard(6);
  EXPECT_TRUE(policy.enabled());
  EXPECT_EQ(policy.backoff_before(1), std::chrono::milliseconds(0));
  EXPECT_EQ(policy.backoff_before(2), std::chrono::milliseconds(250));
  EXPECT_EQ(policy.backoff_before(3), std::chrono::milliseconds(500));
  EXPECT_EQ(policy.backoff_before(4), std::chrono::milliseconds(1000));
  EXPECT_EQ(policy.backoff_before(5), std::chrono::milliseconds(2000));
  EXPECT_EQ(policy.backoff_before(6), std::chrono::milliseconds(2000));  // capped

  RetryPolicy single;
  EXPECT_FALSE(single.enabled());
}

TEST(RetryPolicy, RerandomizeDrawsFreshIdAndCase) {
  auto query = dnswire::make_query(
      1111, *DnsName::parse("some.fairly.long.measurement.domain.example.com"),
      RecordType::A);
  simnet::Rng rng(7);
  RetryPolicy policy = RetryPolicy::standard();

  std::vector<std::uint16_t> ids = {query.id};
  std::vector<std::string> names = {query.questions[0].name.to_string()};
  for (int i = 0; i < 8; ++i) {
    rerandomize_query(query, policy, rng);
    ids.push_back(query.id);
    names.push_back(query.questions[0].name.to_string());
    // The name never changes *semantically*, only in case.
    EXPECT_TRUE(query.questions[0].name.equals_ignore_case(
        *DnsName::parse("some.fairly.long.measurement.domain.example.com")));
  }
  // IDs are 16-bit draws: nine of them colliding pairwise is astronomically
  // unlikely, and this RNG stream is fixed, so assert full distinctness.
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  // The 0x20 pattern must actually vary across attempts.
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  EXPECT_GT(names.size(), 1u);

  // With both knobs off, the query is left untouched.
  RetryPolicy frozen;
  frozen.fresh_id_per_attempt = false;
  frozen.rerandomize_0x20 = false;
  auto before_id = query.id;
  auto before_name = query.questions[0].name.to_string();
  rerandomize_query(query, frozen, rng);
  EXPECT_EQ(query.id, before_id);
  EXPECT_EQ(query.questions[0].name.to_string(), before_name);
}

/// DNS responder that stays silent for the first `drop_first` queries and
/// records what every attempt looked like on the wire.
struct FlakyDnsApp : simnet::UdpApp {
  int drop_first = 0;
  std::vector<std::uint16_t> seen_ids;
  std::vector<std::string> seen_qnames;

  void on_datagram(simnet::Simulator& sim, simnet::Device& self,
                   const simnet::UdpPacket& packet) override {
    auto query = dnswire::decode_message(packet.payload);
    ASSERT_TRUE(query.has_value());
    seen_ids.push_back(query->id);
    seen_qnames.push_back(query->questions[0].name.to_string());
    if (static_cast<int>(seen_ids.size()) <= drop_first) return;

    auto response = dnswire::make_response(*query);
    response.answers.push_back(
        dnswire::make_a(query->questions[0].name, netbase::Ipv4Address(192, 0, 2, 1)));
    simnet::UdpPacket reply;
    reply.src = packet.dst;
    reply.dst = packet.src;
    reply.sport = packet.dport;
    reply.dport = packet.sport;
    reply.payload = dnswire::encode_message(response);
    self.send_local(sim, reply);
  }
};

/// host --- server, with a flaky DNS responder on the server.
struct RetryWorld {
  simnet::Simulator sim{5};
  simnet::Device& host;
  simnet::Device& server;
  FlakyDnsApp app;
  SimTransport transport;

  RetryWorld() :
      host(sim.add_device<simnet::Device>("host")),
      server(sim.add_device<simnet::Device>("server")),
      transport(sim, host) {
    auto [h, s] = sim.connect(host, server);
    host.add_local_ip(ip("192.0.2.10"));
    host.set_default_route(h);
    server.add_local_ip(ip("8.8.8.8"));
    server.set_default_route(s);
    server.bind_udp(53, &app);
  }

  QueryResult query(const RetryPolicy& policy) {
    auto message = dnswire::make_query(
        4242, *DnsName::parse("probe.measurement.example.com"), RecordType::A);
    QueryOptions options;
    options.timeout = std::chrono::milliseconds(500);
    options.retry = policy;
    return core::query_one(transport, {ip("8.8.8.8"), netbase::kDnsPort}, message, options);
  }
};

TEST(RetrySemantics, RetriesRecoverFromEarlyLoss) {
  RetryWorld world;
  world.app.drop_first = 2;
  auto result = world.query(RetryPolicy::standard(4));

  ASSERT_TRUE(result.answered());
  EXPECT_EQ(result.retry.attempts, 3u);
  EXPECT_EQ(result.retry.timeouts, 2u);
  EXPECT_EQ(result.retry.retries(), 2u);
  EXPECT_GE(result.retry.backoff_waited, std::chrono::milliseconds(250 + 500));

  // Every attempt carried a fresh transaction ID: a late answer to attempt
  // N can never satisfy attempt N+1.
  ASSERT_EQ(world.app.seen_ids.size(), 3u);
  EXPECT_NE(world.app.seen_ids[0], world.app.seen_ids[1]);
  EXPECT_NE(world.app.seen_ids[1], world.app.seen_ids[2]);
  EXPECT_NE(world.app.seen_ids[0], world.app.seen_ids[2]);
  // And a fresh 0x20 pattern (the three casings cannot all coincide).
  EXPECT_FALSE(world.app.seen_qnames[0] == world.app.seen_qnames[1] &&
               world.app.seen_qnames[1] == world.app.seen_qnames[2]);

  const auto& telemetry = world.transport.telemetry();
  EXPECT_EQ(telemetry.queries, 1u);
  EXPECT_EQ(telemetry.attempts, 3u);
  EXPECT_EQ(telemetry.retries, 2u);
  EXPECT_EQ(telemetry.answered, 1u);
}

TEST(RetrySemantics, ExhaustedBudgetStillReportsTimeout) {
  RetryWorld world;
  world.app.drop_first = 100;  // never answers
  auto result = world.query(RetryPolicy::standard(3));

  EXPECT_FALSE(result.answered());
  EXPECT_EQ(result.status, QueryResult::Status::timed_out);
  EXPECT_EQ(result.retry.attempts, 3u);
  EXPECT_EQ(result.retry.timeouts, 3u);
  EXPECT_EQ(world.app.seen_ids.size(), 3u);
  EXPECT_EQ(world.transport.telemetry().timeouts, 3u);
}

TEST(RetrySemantics, SingleShotPolicySendsExactlyOnce) {
  RetryWorld world;
  world.app.drop_first = 1;
  auto result = world.query(RetryPolicy{});  // the paper's default
  EXPECT_FALSE(result.answered());
  EXPECT_EQ(result.retry.attempts, 1u);
  EXPECT_EQ(world.app.seen_ids.size(), 1u);
}

// --- §3.3 regression: loss + retries must never manufacture a verdict ---

core::ProbeVerdict run_lossy_scenario(std::uint64_t seed, bool retries,
                                      bool isp_answers_bogons) {
  atlas::ScenarioConfig config;
  config.seed = seed;
  config.isp_policy.middlebox_enabled = true;
  config.isp_policy.ignore_bogon_queries = !isp_answers_bogons;
  config.faults = simnet::FaultProfile::burst_loss(0.20, 4.0);
  config.fault_classes = {"access"};
  if (retries) config.retry = RetryPolicy::standard(4);

  atlas::Scenario scenario(config);
  EXPECT_EQ(scenario.ground_truth().expected,
            isp_answers_bogons ? InterceptorLocation::isp : InterceptorLocation::unknown);
  LocalizationPipeline pipeline(scenario.pipeline_config());
  return pipeline.run(scenario.transport());
}

TEST(RetrySemantics, BogonSilenceStaysUnknownUnderLossAcrossSeeds) {
  // An ISP interceptor that discards bogon queries: the bogon probe times
  // out no matter how often it is retried. With 20% burst loss on the
  // access link the verdict must still be "unknown" — never a false "isp"
  // (no bogon answer ever existed) and never a false "not intercepted"
  // (detection sees the interception).
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    auto verdict = run_lossy_scenario(seed, /*retries=*/true, /*isp_answers_bogons=*/false);
    EXPECT_EQ(verdict.location, InterceptorLocation::unknown) << "seed " << seed;
    EXPECT_GT(verdict.telemetry.retries, 0u) << "seed " << seed;
  }
}

TEST(RetrySemantics, LossNeverUpgradesOrClearsAnIspVerdict) {
  // When the interceptor does answer bogons, loss may at worst demote the
  // verdict to "unknown" (the bogon answer was lost every time) — it must
  // never flip to "not intercepted" or to a phantom CPE interceptor.
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    auto verdict = run_lossy_scenario(seed, /*retries=*/true, /*isp_answers_bogons=*/true);
    EXPECT_TRUE(verdict.location == InterceptorLocation::isp ||
                verdict.location == InterceptorLocation::unknown)
        << "seed " << seed << " gave " << static_cast<int>(verdict.location);
  }
}

TEST(RetrySemantics, LossyScenarioReplaysDeterministically) {
  auto first = run_lossy_scenario(33, true, true);
  auto second = run_lossy_scenario(33, true, true);
  EXPECT_EQ(first.location, second.location);
  EXPECT_EQ(first.telemetry.attempts, second.telemetry.attempts);
  EXPECT_EQ(first.telemetry.timeouts, second.telemetry.timeouts);
  EXPECT_EQ(first.telemetry.answered, second.telemetry.answered);
}

}  // namespace
}  // namespace dnslocate::core
