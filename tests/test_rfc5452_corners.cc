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
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <thread>
#include <vector>

#include "atlas/scenario.h"
#include "core/pipeline.h"
#include "core/query_batch.h"
#include "scripted_servers.h"
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
// Scripted loopback servers (tests/scripted_servers.h): each corner sends
// from the wrong socket, re-cases the echo, or times a duplicate around the
// collection window.

using testutil::CornerServer;
using testutil::TcpCornerServer;

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

TEST(Rfc5452CornersTcpTransport, ManualCancelInterruptsTheReceiveWait) {
  // The server takes the query and never answers. A manual token cancelled
  // at 100 ms must end the 3 s receive wait at the next poll slice, as it
  // does on UdpEngine: one attempt, reported as a timeout.
  TcpCornerServer server([](TcpCornerServer& s, const dnswire::Message&) {
    s.hold_until_closed();
  });
  TcpTransport transport;
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(3000);
  options.cancel = core::CancelToken::manual();
  std::thread canceller([token = options.cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    token.cancel();
  });
  auto started = std::chrono::steady_clock::now();
  auto result = core::query_one(transport, server.endpoint(), corner_query(0x2b1d), options);
  auto elapsed = std::chrono::steady_clock::now() - started;
  canceller.join();
  EXPECT_FALSE(result.answered());
  EXPECT_EQ(result.status, core::QueryResult::Status::timed_out);
  EXPECT_EQ(result.retry.attempts, 1u);
  EXPECT_EQ(result.retry.timeouts, 1u);
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
}

TEST(Rfc5452CornersTcpTransport, DeadlineTokenEndsTheBackoffWithoutAnotherAttempt) {
  // The first attempt times out at 100 ms and the 400 ms backoff is capped
  // by the token's 250 ms deadline: the wait ends cancelled, so no second
  // attempt goes out however the sleep rounds.
  TcpCornerServer server([](TcpCornerServer& s, const dnswire::Message&) {
    s.hold_until_closed();
  });
  TcpTransport transport;
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(100);
  options.retry = core::RetryPolicy::standard(3);
  options.retry.initial_backoff = std::chrono::milliseconds(400);
  options.cancel = core::CancelToken::after(std::chrono::milliseconds(250));
  auto result = core::query_one(transport, server.endpoint(), corner_query(0x2b1d), options);
  EXPECT_FALSE(result.answered());
  EXPECT_EQ(result.retry.attempts, 1u);
  EXPECT_EQ(result.retry.timeouts, 1u);
  EXPECT_EQ(result.retry.backoff_waited, std::chrono::milliseconds(400));
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
