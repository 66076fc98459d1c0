// The batched engine's central promise: scheduling never changes evidence.
// Checked four ways — the scenario corpus through SimTransport against the
// simulator's ground truth (tests/test_corpus_golden.cc pins its bytes),
// UdpEngine one query at a time (max_inflight = 1) against its default
// fan-out over real loopback sockets, the cancellation path (a drained
// batch reports honest timeouts and skipped stages, never fabricated
// answers), and the engine-timeline table (every engine ends the same
// scripted attempt timelines the same way).
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "atlas/scenario.h"
#include "scenario_corpus.h"
#include "core/describe.h"
#include "core/mapped_transport.h"
#include "core/pipeline.h"
#include "core/sim_transport.h"
#include "dnswire/debug_queries.h"
#include "dnswire/encoder.h"
#include "netbase/bogon.h"
#include "obs/metrics.h"
#include "scripted_servers.h"
#include "sockets/loopback_server.h"
#include "sockets/tcp_transport.h"
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

// ---------------------------------------------------------------------------
// The engine-timeline table. Each case scripts a server (silent for the
// first attempts of each query, or never answering, or answering and then
// sending a conflicting copy after the duplicate window) and a cancellation
// (none, before the run, or during the first backoff), and runs it as a
// batch of two queries through SimTransport, UdpEngine at max_inflight 1 and
// 64, and TcpTransport. Each row pins how every query's attempts ended and
// whether the batch drained. Rows differ only where the engines
// legitimately do: SimTransport runs in simulated time, so it ignores the
// wall-clock token and collects to the full attempt timeout; only UdpEngine
// marks a batch drained (SequentialTransport never does); at max_inflight 1
// and over TCP the second query meets the token before it is ever sent.

struct TimelineScript {
  unsigned silent_attempts = 0;  // attempts of each query the server ignores
  bool late_duplicate = false;   // conflicting copy 200 ms after the answer
};

enum class CancelAt { never, before_run, during_backoff };

struct TimelineCase {
  const char* name;
  TimelineScript script;
  core::RetryPolicy retry;
  std::chrono::milliseconds timeout;
  CancelAt cancel;
};

constexpr std::chrono::milliseconds kTimelineWindow{50};  // UDP and TCP
constexpr std::chrono::milliseconds kLateDuplicateAfter{200};

core::RetryPolicy timeline_retry(unsigned attempts, std::chrono::milliseconds backoff) {
  core::RetryPolicy policy = core::RetryPolicy::standard(attempts);
  policy.initial_backoff = backoff;
  return policy;
}

const std::vector<TimelineCase>& timeline_cases() {
  static const std::vector<TimelineCase> cases = {
      {"lost_then_answer", {2, false}, timeline_retry(4, 20ms), 100ms, CancelAt::never},
      {"never_answered", {~0u, false}, timeline_retry(3, 20ms), 100ms, CancelAt::never},
      {"duplicate_after_window", {0, true}, core::RetryPolicy{}, 400ms, CancelAt::never},
      {"pre_cancelled", {0, false}, timeline_retry(3, 20ms), 100ms, CancelAt::before_run},
      // Cancelled 150 ms into the 400 ms backoff after the first timeout.
      {"cancelled_in_backoff", {~0u, false}, timeline_retry(3, 400ms), 100ms,
       CancelAt::during_backoff},
  };
  return cases;
}

/// The server side of a case: which attempts of a query get an answer.
/// Queries are told apart by question name, which a retry re-cases but
/// never changes.
class TimelineResponder {
 public:
  explicit TimelineResponder(TimelineScript script) : script_(script) {}

  /// The answer to `query`, or nullopt when the script is silent for it.
  std::optional<dnswire::Message> answer(const dnswire::Message& query) {
    std::string key = query.questions.front().name.to_string();
    for (char& c : key) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (++attempts_seen_[key] <= script_.silent_attempts) return std::nullopt;
    return dnswire::make_response(query);
  }
  [[nodiscard]] bool late_duplicate() const { return script_.late_duplicate; }

 private:
  TimelineScript script_;
  std::map<std::string, unsigned> attempts_seen_;
};

/// host --- server in the simulator, the server answering per the script.
struct SimTimelineWorld : simnet::UdpApp {
  simnet::Simulator sim{5};
  simnet::Device& host;
  simnet::Device& server;
  TimelineResponder& responder;
  core::SimTransport transport;

  explicit SimTimelineWorld(TimelineResponder& script_responder)
      : host(sim.add_device<simnet::Device>("host")),
        server(sim.add_device<simnet::Device>("server")),
        responder(script_responder),
        transport(sim, host) {
    auto [h, s] = sim.connect(host, server);
    host.add_local_ip(*netbase::IpAddress::parse("192.0.2.10"));
    host.set_default_route(h);
    server.add_local_ip(*netbase::IpAddress::parse("198.51.100.53"));
    server.set_default_route(s);
    server.bind_udp(netbase::kDnsPort, this);
  }

  [[nodiscard]] netbase::Endpoint endpoint() const {
    return {*netbase::IpAddress::parse("198.51.100.53"), netbase::kDnsPort};
  }

  void on_datagram(simnet::Simulator& s, simnet::Device& self,
                   const simnet::UdpPacket& packet) override {
    auto query = dnswire::decode_message(packet.payload);
    if (!query) return;
    auto response = responder.answer(*query);
    if (!response) return;
    simnet::UdpPacket reply;
    reply.src = packet.dst;
    reply.dst = packet.src;
    reply.sport = packet.dport;
    reply.dport = packet.sport;
    reply.payload = dnswire::encode_message(*response);
    self.send_local(s, reply);
    if (!responder.late_duplicate()) return;
    reply.payload = dnswire::encode_message(
        dnswire::make_response(*query, dnswire::Rcode::NXDOMAIN));
    s.schedule(kLateDuplicateAfter,
               [&s, &self, reply]() mutable { self.send_local(s, std::move(reply)); });
  }
};

enum class TimelineEngine { sim, udp_1, udp_64, tcp };

const char* engine_name(TimelineEngine engine) {
  switch (engine) {
    case TimelineEngine::sim: return "SimTransport";
    case TimelineEngine::udp_1: return "UdpEngine/1";
    case TimelineEngine::udp_64: return "UdpEngine/64";
    case TimelineEngine::tcp: return "TcpTransport";
  }
  return "?";
}

/// How one query's attempts ended.
struct Timeline {
  unsigned attempts;
  unsigned timeouts;
  std::chrono::milliseconds backoff_waited;
  bool answered;
  std::size_t responses;  // all_responses.size()
};

struct BatchOutcome {
  std::vector<Timeline> queries;
  bool drained;
};

BatchOutcome run_timeline(const TimelineCase& c, TimelineEngine engine) {
  core::QueryOptions options;
  options.timeout = c.timeout;
  options.retry = c.retry;
  auto build = [&](const netbase::Endpoint& server) {
    core::QueryBatch batch;
    batch.add(server, dnswire::make_query(0x5101, *dnswire::DnsName::parse("Q0.Timeline.Test"),
                                          dnswire::RecordType::A), options);
    batch.add(server, dnswire::make_query(0x5102, *dnswire::DnsName::parse("Q1.Timeline.Test"),
                                          dnswire::RecordType::A), options);
    return batch;
  };
  struct JoinOnExit {
    std::thread thread;
    ~JoinOnExit() {
      if (thread.joinable()) thread.join();
    }
  } canceller;
  auto arm_cancel = [&] {
    if (c.cancel == CancelAt::never) return;
    options.cancel = core::CancelToken::manual();
    if (c.cancel == CancelAt::before_run) {
      options.cancel.cancel();
      return;
    }
    canceller.thread = std::thread([token = options.cancel, at = c.timeout + 150ms] {
      std::this_thread::sleep_for(at);
      token.cancel();
    });
  };
  auto outcome = [](const core::QueryBatch& batch) {
    BatchOutcome out{{}, batch.drained()};
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const core::QueryResult& r = batch.result(i);
      out.queries.push_back({r.retry.attempts, r.retry.timeouts, r.retry.backoff_waited,
                             r.answered(), r.all_responses.size()});
    }
    return out;
  };

  TimelineResponder responder(c.script);
  switch (engine) {
    case TimelineEngine::sim: {
      SimTimelineWorld world(responder);
      arm_cancel();
      core::QueryBatch batch = build(world.endpoint());
      world.transport.run(batch);
      return outcome(batch);
    }
    case TimelineEngine::udp_1:
    case TimelineEngine::udp_64: {
      testutil::CornerServer server([&responder](testutil::CornerServer& s,
                                                 const dnswire::Message& q,
                                                 const sockaddr_storage& to, socklen_t len) {
        auto response = responder.answer(q);
        if (!response) return;
        s.send(*response, to, len);
        if (!responder.late_duplicate()) return;
        std::this_thread::sleep_for(kLateDuplicateAfter);
        s.send(dnswire::make_response(q, dnswire::Rcode::NXDOMAIN), to, len);
      });
      sockets::UdpEngine::Config config;
      config.duplicate_window = kTimelineWindow;
      config.max_inflight = engine == TimelineEngine::udp_1 ? 1 : 64;
      sockets::UdpEngine udp(config);
      arm_cancel();
      core::QueryBatch batch = build(server.endpoint());
      udp.run(batch);
      return outcome(batch);
    }
    case TimelineEngine::tcp: {
      testutil::TcpCornerServer server(
          [&responder](testutil::TcpCornerServer& s, const dnswire::Message& q) {
            auto response = responder.answer(q);
            if (!response) {
              s.hold_until_closed();
              return;
            }
            s.send(*response);
            if (!responder.late_duplicate()) return;
            std::this_thread::sleep_for(kLateDuplicateAfter);
            s.send(dnswire::make_response(q, dnswire::Rcode::NXDOMAIN));
          });
      sockets::TcpTransport::Config config;
      config.duplicate_window = kTimelineWindow;
      sockets::TcpTransport tcp(config);
      arm_cancel();
      core::QueryBatch batch = build(server.endpoint());
      tcp.run(batch);
      return outcome(batch);
    }
  }
  return {};
}

struct TimelineRow {
  const char* case_name;
  TimelineEngine engine;
  Timeline first;   // query 0
  Timeline second;  // query 1
  bool drained;
};

TEST(EngineEquivalence, EngineTimelineTable) {
  using E = TimelineEngine;
  const Timeline lost_then_answer{3, 2, 60ms, true, 1};
  const Timeline never_answered{3, 3, 60ms, false, 0};
  const Timeline answered_once{1, 0, 0ms, true, 1};
  const Timeline never_sent{1, 0, 0ms, false, 0};  // one nominal attempt
  const Timeline cancelled_in_backoff{1, 1, 400ms, false, 0};
  const TimelineRow rows[] = {
      {"lost_then_answer", E::sim, lost_then_answer, lost_then_answer, false},
      {"lost_then_answer", E::udp_1, lost_then_answer, lost_then_answer, false},
      {"lost_then_answer", E::udp_64, lost_then_answer, lost_then_answer, false},
      {"lost_then_answer", E::tcp, lost_then_answer, lost_then_answer, false},

      {"never_answered", E::sim, never_answered, never_answered, false},
      {"never_answered", E::udp_1, never_answered, never_answered, false},
      {"never_answered", E::udp_64, never_answered, never_answered, false},
      {"never_answered", E::tcp, never_answered, never_answered, false},

      // The simulated exchange collects to the full 400 ms timeout, so the
      // copy sent 200 ms after the answer is kept as a second response.
      {"duplicate_after_window", E::sim, {1, 0, 0ms, true, 2}, {1, 0, 0ms, true, 2}, false},
      {"duplicate_after_window", E::udp_1, answered_once, answered_once, false},
      {"duplicate_after_window", E::udp_64, answered_once, answered_once, false},
      {"duplicate_after_window", E::tcp, answered_once, answered_once, false},

      {"pre_cancelled", E::sim, answered_once, answered_once, false},
      {"pre_cancelled", E::udp_1, never_sent, never_sent, true},
      {"pre_cancelled", E::udp_64, never_sent, never_sent, true},
      {"pre_cancelled", E::tcp, never_sent, never_sent, false},

      {"cancelled_in_backoff", E::sim, {3, 3, 1200ms, false, 0}, {3, 3, 1200ms, false, 0},
       false},
      {"cancelled_in_backoff", E::udp_1, cancelled_in_backoff, never_sent, true},
      {"cancelled_in_backoff", E::udp_64, cancelled_in_backoff, cancelled_in_backoff, true},
      {"cancelled_in_backoff", E::tcp, cancelled_in_backoff, never_sent, false},
  };

  for (const TimelineCase& c : timeline_cases()) {
    for (const TimelineRow& row : rows) {
      if (std::string(row.case_name) != c.name) continue;
      const std::string label = std::string(c.name) + " / " + engine_name(row.engine);
      BatchOutcome got = run_timeline(c, row.engine);
      ASSERT_EQ(got.queries.size(), 2u) << label;
      const Timeline* want[] = {&row.first, &row.second};
      for (std::size_t i = 0; i < 2; ++i) {
        const std::string where = label + " / query " + std::to_string(i);
        EXPECT_EQ(got.queries[i].attempts, want[i]->attempts) << where;
        EXPECT_EQ(got.queries[i].timeouts, want[i]->timeouts) << where;
        EXPECT_EQ(got.queries[i].backoff_waited, want[i]->backoff_waited) << where;
        EXPECT_EQ(got.queries[i].answered, want[i]->answered) << where;
        EXPECT_EQ(got.queries[i].responses, want[i]->responses) << where;
      }
      EXPECT_EQ(got.drained, row.drained) << label;
    }
  }
}

}  // namespace
}  // namespace dnslocate
