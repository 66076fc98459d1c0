// The batched engine's central promise: scheduling never changes evidence.
// Checked three ways — the scenario corpus through SimTransport against the
// simulator's ground truth (tests/test_corpus_golden.cc pins its bytes),
// UdpEngine one query at a time (max_inflight = 1) against its default
// fan-out over real loopback sockets, and the cancellation path (a drained
// batch reports honest timeouts and skipped stages, never fabricated
// answers).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "atlas/scenario.h"
#include "scenario_corpus.h"
#include "core/describe.h"
#include "core/mapped_transport.h"
#include "core/pipeline.h"
#include "dnswire/debug_queries.h"
#include "netbase/bogon.h"
#include "obs/metrics.h"
#include "sockets/loopback_server.h"
#include "sockets/udp_engine.h"

namespace dnslocate {
namespace {

using namespace std::chrono_literals;
using atlas::CpeStyle;
using atlas::Scenario;
using atlas::ScenarioConfig;
using core::LocalizationPipeline;
using resolvers::PublicResolverKind;

using testing_corpus::Case;
using testing_corpus::corpus;

TEST(EngineEquivalence, SimCorpusMatchesGroundTruth) {
  // The golden file pins the corpus bytes; pin the locations to the
  // simulator's ground truth too, so a golden regenerated from a wrong
  // engine cannot pass.
  for (const Case& c : corpus()) {
    Scenario scenario(c.config);
    if (scenario.ground_truth().expected == core::InterceptorLocation::unknown) continue;
    LocalizationPipeline pipeline(scenario.pipeline_config());
    auto verdict = pipeline.run(scenario.transport());
    EXPECT_EQ(verdict.location, scenario.ground_truth().expected) << c.name;
  }
}

TEST(EngineEquivalence, OneInFlightMatchesFanOutOverLoopback) {
  // The full pipeline over the CPE-DNAT loopback world, once with UdpEngine
  // admitting one query at a time and once fanned out at the default cap:
  // the evidence trail and the telemetry are byte-identical.
  resolvers::ResolverConfig alternate;
  alternate.software = resolvers::dnsmasq("2.78");
  alternate.egress_v4 = *netbase::IpAddress::parse("127.0.0.1");
  sockets::LoopbackDnsServer interceptor(
      std::make_shared<resolvers::ResolverBehavior>(alternate));
  auto cpe_ip = *netbase::IpAddress::parse("203.0.113.7");

  core::PipelineConfig config;
  config.cpe_public_ip = cpe_ip;
  config.detection.test_v6 = false;
  config.bogon.test_v6 = false;
  config.detect_replication = true;
  core::QueryOptions options;
  options.timeout = 1500ms;
  config.detection.query = options;
  config.cpe_check.query = options;
  config.bogon.query = options;
  config.transparency.query = options;
  config.replication.query = options;

  auto run_with = [&](std::size_t max_inflight) {
    sockets::UdpEngine::Config engine_config;
    engine_config.max_inflight = max_inflight;
    sockets::UdpEngine engine(engine_config);
    core::MappedBatchTransport transport(engine);
    for (PublicResolverKind kind : resolvers::all_public_resolvers())
      for (const auto& address : resolvers::PublicResolverSpec::get(kind).service_v4)
        transport.map_address(address, interceptor.endpoint());
    transport.map_address(cpe_ip, interceptor.endpoint());
    transport.map_address(netbase::BogonCatalog::default_probe_v4(), interceptor.endpoint());
    auto verdict = LocalizationPipeline(config).run(transport);
    const core::TransportTelemetry& t = verdict.telemetry;
    return core::describe(verdict) + "\nqueries=" + std::to_string(t.queries) +
           " attempts=" + std::to_string(t.attempts) + " timeouts=" +
           std::to_string(t.timeouts) + " answered=" + std::to_string(t.answered) +
           " conflicts=" + std::to_string(t.conflicts) +
           " spoof=" + std::to_string(t.spoof_suspected);
  };

  std::string serial = run_with(1);
  std::string fanned = run_with(64);
  EXPECT_NE(serial.find("the CPE is the interceptor"), std::string::npos) << serial;
  EXPECT_EQ(serial, fanned);
}

TEST(EngineEquivalence, OneInFlightHoldsItsSlotThroughRetries) {
  // With max_inflight = 1 a query keeps its slot through its backoff: the
  // second query is not sent until the first has run out of attempts, so
  // the batch takes the sum of both timelines and never has two queries
  // outstanding.
  sockets::UdpEngine::Config engine_config;
  engine_config.max_inflight = 1;
  sockets::UdpEngine engine(engine_config);
  core::QueryOptions options;
  options.timeout = 60ms;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff = 60ms;
  core::QueryBatch batch;
  batch.add({*netbase::IpAddress::parse("127.0.0.1"), 9},
            dnswire::make_chaos_query(0x4001, dnswire::version_bind()), options);
  batch.add({*netbase::IpAddress::parse("127.0.0.1"), 9},
            dnswire::make_chaos_query(0x4002, dnswire::version_bind()), options);

  obs::registry().reset();
  obs::Config metrics;
  metrics.metrics = true;
  obs::enable(metrics);
  auto start = std::chrono::steady_clock::now();
  engine.run(batch);
  auto elapsed = std::chrono::steady_clock::now() - start;
  const std::int64_t peak = obs::registry().gauge("batch_inflight_peak_queries").value();
  obs::disable();
  obs::registry().reset();

  EXPECT_EQ(peak, 1);
  EXPECT_GE(elapsed, 2 * (60ms + 60ms + 60ms) - 30ms);  // attempt, backoff, attempt; twice
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_FALSE(batch.result(i).answered());
    EXPECT_EQ(batch.result(i).retry.attempts, 2u);
    EXPECT_EQ(batch.result(i).retry.timeouts, 2u);
  }
}

TEST(EngineEquivalence, BatchOverlapsQueriesInsteadOfSummingDelays) {
  // Six queries against a server that delays every answer by 100ms and then
  // each sits out the 200ms duplicate window: sequentially that is ~1.8s,
  // in one fan-out it is the max (~0.3s). The generous 1s bound still only
  // passes if the queries genuinely overlapped.
  resolvers::ResolverConfig behavior;
  behavior.software = resolvers::custom_string("overlap");
  sockets::LoopbackDnsServer server(std::make_shared<resolvers::ResolverBehavior>(behavior),
                                    /*serve_tcp=*/false, 100ms);

  sockets::UdpEngine engine;
  core::QueryOptions options;
  options.timeout = 2000ms;
  core::QueryBatch batch;
  for (std::uint16_t i = 0; i < 6; ++i)
    batch.add(server.endpoint(), dnswire::make_chaos_query(static_cast<std::uint16_t>(0x2000 + i),
                                                           dnswire::version_bind()),
              options);

  auto start = std::chrono::steady_clock::now();
  engine.run(batch);
  auto elapsed = std::chrono::steady_clock::now() - start;

  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch.result(i).answered()) << "slot " << i;
    EXPECT_EQ(batch.result(i).response->first_txt(), "overlap");
  }
  EXPECT_FALSE(batch.drained());
  EXPECT_LT(elapsed, 1000ms);
  EXPECT_EQ(server.queries_served(), 6u);
}

TEST(EngineEquivalence, CancellationMidBatchDrainsWithHonestTimeouts) {
  // Answers are held back for 600ms but the token expires at 100ms: the
  // engine must abandon the in-flight queries promptly, report them as
  // timeouts (the attempt WAS sent), and mark the batch drained — without
  // waiting out the 5s per-query timeout and without inventing answers.
  resolvers::ResolverConfig behavior;
  behavior.software = resolvers::custom_string("too-late");
  sockets::LoopbackDnsServer server(std::make_shared<resolvers::ResolverBehavior>(behavior),
                                    /*serve_tcp=*/false, 600ms);

  sockets::UdpEngine engine;
  core::QueryOptions options;
  options.timeout = 5000ms;
  options.cancel = core::CancelToken::after(100ms);
  core::QueryBatch batch;
  for (std::uint16_t i = 0; i < 4; ++i)
    batch.add(server.endpoint(), dnswire::make_chaos_query(static_cast<std::uint16_t>(0x3000 + i),
                                                           dnswire::version_bind()),
              options);

  auto start = std::chrono::steady_clock::now();
  engine.run(batch);
  auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_TRUE(batch.drained());
  EXPECT_LT(elapsed, 500ms);  // drained at the next cancel slice, not at 5s
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& result = batch.result(i);
    EXPECT_FALSE(result.answered()) << "slot " << i;
    EXPECT_FALSE(result.response.has_value());
    EXPECT_TRUE(result.all_responses.empty());
    EXPECT_EQ(result.retry.attempts, 1u);
    EXPECT_GE(result.retry.timeouts, 1u);
  }
}

TEST(EngineEquivalence, PreCancelledBatchNeverTouchesTheWire) {
  sockets::UdpEngine engine;
  core::QueryOptions options;
  options.cancel = core::CancelToken::manual();
  options.cancel.cancel();
  core::QueryBatch batch;
  batch.add({*netbase::IpAddress::parse("127.0.0.1"), 9},
            dnswire::make_chaos_query(1, dnswire::version_bind()), options);
  batch.add({*netbase::IpAddress::parse("127.0.0.1"), 9},
            dnswire::make_chaos_query(2, dnswire::version_bind()), options);

  engine.run(batch);

  EXPECT_TRUE(batch.drained());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_FALSE(batch.result(i).answered());
    // Nothing hit the wire: no timeout was ever observed. (The result
    // keeps the RetryTelemetry default of one nominal attempt, as
    // run_exchange does when cancellation stops it before sending.)
    EXPECT_EQ(batch.result(i).retry.attempts, 1u);
    EXPECT_EQ(batch.result(i).retry.timeouts, 0u);
  }
}

TEST(EngineEquivalence, PipelineOverEngineSkipsDrainedStages) {
  // Full pipeline over the async engine with a budget that expires while
  // detection's batch is in flight (answers arrive at 600ms, token dies at
  // 120ms): the drained detection stage is marked skipped, the tail never
  // runs, and the partial verdict claims nothing it did not observe.
  resolvers::ResolverConfig alternate;
  alternate.software = resolvers::dnsmasq("2.78");
  alternate.egress_v4 = *netbase::IpAddress::parse("127.0.0.1");
  sockets::LoopbackDnsServer interceptor(
      std::make_shared<resolvers::ResolverBehavior>(alternate), /*serve_tcp=*/false, 600ms);

  sockets::UdpEngine engine;
  core::MappedBatchTransport transport(engine);
  for (PublicResolverKind kind : resolvers::all_public_resolvers())
    transport.map_address(resolvers::PublicResolverSpec::get(kind).service_v4[0],
                          interceptor.endpoint());

  core::PipelineConfig config;
  config.detection.test_v6 = false;
  config.detection.use_secondary_addresses = false;
  core::QueryOptions slow;
  slow.timeout = 5000ms;
  config.detection.query = slow;
  config.cpe_public_ip = *netbase::IpAddress::parse("203.0.113.7");

  LocalizationPipeline pipeline(config);
  auto start = std::chrono::steady_clock::now();
  auto verdict = pipeline.run(static_cast<core::AsyncQueryTransport&>(transport),
                              core::CancelToken::after(120ms));
  auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_LT(elapsed, 1000ms);
  EXPECT_TRUE(verdict.partial());
  EXPECT_TRUE(verdict.stage_skipped(core::PipelineStage::detection));
  EXPECT_TRUE(verdict.stage_skipped(core::PipelineStage::cpe_check));
  EXPECT_TRUE(verdict.stage_skipped(core::PipelineStage::bogon));
  EXPECT_TRUE(verdict.stage_skipped(core::PipelineStage::transparency));
  // Nothing answered, so nothing is claimed beyond "no evidence".
  EXPECT_EQ(verdict.location, core::InterceptorLocation::not_intercepted);
  EXPECT_EQ(verdict.telemetry.answered, 0u);
  EXPECT_FALSE(verdict.cpe_check.has_value());
  EXPECT_FALSE(verdict.bogon.has_value());
  EXPECT_FALSE(verdict.transparency.has_value());
}

}  // namespace
}  // namespace dnslocate
