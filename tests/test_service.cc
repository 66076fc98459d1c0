// The resident measurement service, in-process: the HTTP message layer,
// the runtime kernel (admission, tenancy, cancellation, drain-and-resume),
// the JSON API routing over a real socket, and the metrics/census agreement
// the control plane promises.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "atlas/fleet_json.h"
#include "atlas/measurement.h"
#include "journal_files.h"
#include "jsonio/json.h"
#include "obs/metrics.h"
#include "report/results_io.h"
#include "service/api.h"
#include "service/http.h"
#include "service/http_server.h"
#include "service/service.h"
#include "service_test_util.h"

namespace dnslocate {
namespace {

using service::MeasurementService;
using service::RunState;
using service::ServiceConfig;
using testutil::http_request;
using testutil::ScratchDir;

constexpr const char* kSmallPlan =
    R"({"seed": 7, "ipv6_fraction": 0.5, "orgs": [
         {"org": "SvcNet", "asn": 64710, "country": "US", "probes": 24,
          "cpe_xb6": 2, "isp_allfour": 1},
         {"org": "CtrlNet", "asn": 64711, "country": "DE", "probes": 12}]})";

std::string paced_plan(const std::string& tenant, int probes, int pace_ms) {
  return R"({"seed": 7, "tenant": ")" + tenant + R"(", "pace_ms": )" +
         std::to_string(pace_ms) + R"(, "orgs": [
           {"org": "PaceNet", "asn": 64712, "country": "US", "probes": )" +
         std::to_string(probes) + R"(, "cpe_xb6": 2}]})";
}

/// The exact options MeasurementService::execute uses for a default-config
/// run — the baseline for every byte-identity assertion below.
std::string baseline_jsonl(const std::string& plan) {
  auto parsed = atlas::fleet_from_json(plan);
  EXPECT_TRUE(parsed.ok());
  atlas::MeasurementOptions options;
  options.strip_raw_responses = true;
  options.shards = 1;
  return report::run_to_jsonl(atlas::run_fleet(parsed.generate(), options));
}

bool wait_for_state(MeasurementService& svc, const std::string& id, RunState state,
                    std::chrono::seconds timeout = std::chrono::seconds(60)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    auto status = svc.status(id);
    if (status && status->state == state) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// Live threads in this process.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

/// thread_count() once it equals `expected`, or after a few seconds: a
/// joined thread's task can stay listed in /proc/self/task for a moment
/// while it exits.
std::size_t settled_thread_count(std::size_t expected) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t n = thread_count();
  while (n != expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    n = thread_count();
  }
  return n;
}

/// The verdict stream put in fleet order, one line each, as /records has it.
std::string verdicts_in_fleet_order(MeasurementService& svc, const std::string& id,
                                    const std::string& plan) {
  auto page = svc.verdicts(id, 0);
  EXPECT_TRUE(page.has_value());
  if (!page) return {};
  std::map<std::uint32_t, std::string> by_probe;
  for (const auto& line : page->lines) {
    auto value = jsonio::parse(line);
    EXPECT_TRUE(value.has_value()) << line;
    if (value) by_probe[static_cast<std::uint32_t>((*value)["probe_id"].as_int())] = line;
  }
  EXPECT_EQ(by_probe.size(), page->lines.size());
  std::string out;
  for (const auto& spec : atlas::fleet_from_json(plan).generate()) {
    auto it = by_probe.find(spec.probe_id);
    if (it != by_probe.end()) out += it->second + "\n";
  }
  return out;
}

// --- HTTP message layer ---

TEST(ServiceHttp, ParserHandlesRequestLineQueryAndBody) {
  service::RequestParser parser;
  const std::string wire =
      "POST /v1/fleets/run-000001/verdicts?from_seq=12&x=a%20b HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 4\r\n"
      "X-Mixed-Case: Yes\r\n"
      "\r\nbody";
  // Feed byte by byte: the parser must be fully incremental.
  auto state = service::RequestParser::State::need_more;
  for (char c : wire) state = parser.feed(std::string_view(&c, 1));
  ASSERT_EQ(state, service::RequestParser::State::done);
  const auto& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path, "/v1/fleets/run-000001/verdicts");
  EXPECT_EQ(request.query_value("from_seq"), "12");
  EXPECT_EQ(request.query_value("x"), "a b");
  EXPECT_EQ(request.query_value("missing", "fallback"), "fallback");
  EXPECT_EQ(request.headers.at("x-mixed-case"), "Yes");
  EXPECT_EQ(request.body, "body");
}

TEST(ServiceHttp, ParserRejectsGarbageAndOversizedHeads) {
  service::RequestParser bad_line;
  EXPECT_EQ(bad_line.feed("nonsense\r\n\r\n"), service::RequestParser::State::bad);
  EXPECT_FALSE(bad_line.error().empty());

  service::RequestParser oversized;
  std::string huge = "GET / HTTP/1.1\r\nX-Pad: ";
  huge.append(20 * 1024, 'a');
  EXPECT_EQ(oversized.feed(huge), service::RequestParser::State::bad);

  service::RequestParser chunked_body;
  EXPECT_EQ(chunked_body.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            service::RequestParser::State::bad);
}

TEST(ServiceHttp, ChunkFramingAndHeadSerialization) {
  EXPECT_EQ(service::encode_chunk("hello"), "5\r\nhello\r\n");
  EXPECT_EQ(service::final_chunk(), "0\r\n\r\n");

  service::HttpResponse plain;
  plain.status = 404;
  plain.body = "xy";
  auto head = service::serialize_head(plain);
  EXPECT_NE(head.find("HTTP/1.1 404 Not Found"), std::string::npos);
  EXPECT_NE(head.find("Content-Length: 2"), std::string::npos);

  service::HttpResponse streaming;
  streaming.stream = []() -> std::optional<std::string> { return std::nullopt; };
  auto stream_head = service::serialize_head(streaming);
  EXPECT_NE(stream_head.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_EQ(stream_head.find("Content-Length"), std::string::npos);
}

// --- admission ---

TEST(Service, RejectsMalformedJsonWithByteContext) {
  const ScratchDir scratch("svc-badjson");
  ServiceConfig config;
  config.state_dir = scratch.path();
  MeasurementService svc(config);

  auto result = svc.submit("{\"probes\": 5,\n \"orgs\": [,]}");
  EXPECT_EQ(result.status, 400);
  // Satellite #1: the 400 carries the jsonio offset/line/column/context.
  EXPECT_EQ(result.detail["offset"].as_int(), 24);
  EXPECT_EQ(result.detail["line"].as_int(), 2);
  EXPECT_EQ(result.detail["column"].as_int(), 11);
  EXPECT_NE(result.detail["context"].as_string().find("-->"), std::string::npos);
  EXPECT_NE(result.error.find("line 2"), std::string::npos);
}

TEST(Service, RejectsBadPlansTenantsAndOversizedFleets) {
  const ScratchDir scratch("svc-reject");
  ServiceConfig config;
  config.state_dir = scratch.path();
  config.max_probes = 10;
  MeasurementService svc(config);

  // Valid JSON, invalid plan (no orgs).
  auto no_probes = svc.submit(R"({"seed": 1, "orgs": []})");
  EXPECT_EQ(no_probes.status, 400);

  auto bad_tenant = svc.submit(
      R"({"seed": 1, "tenant": "no spaces!", "orgs": [{"org": "A", "asn": 1, "probes": 2}]})");
  EXPECT_EQ(bad_tenant.status, 400);

  auto bad_pace = svc.submit(
      R"({"seed": 1, "pace_ms": -5, "orgs": [{"org": "A", "asn": 1, "probes": 2}]})");
  EXPECT_EQ(bad_pace.status, 400);

  auto too_big = svc.submit(R"({"seed": 1, "orgs": [{"org": "A", "asn": 1, "probes": 50}]})");
  EXPECT_EQ(too_big.status, 413);
}

TEST(Service, DrainingAnswers503AndStopsAdmitting) {
  const ScratchDir scratch("svc-drain503");
  ServiceConfig config;
  config.state_dir = scratch.path();
  MeasurementService svc(config);
  svc.drain();
  EXPECT_TRUE(svc.draining());
  auto result = svc.submit(kSmallPlan);
  EXPECT_EQ(result.status, 503);
}

// --- lifecycle ---

TEST(Service, WorkersStartWithTheFirstWork) {
  const ScratchDir scratch("svc-idle");
  const std::string& state_dir = scratch.path();
  std::string finished_id;
  {
    ServiceConfig config;
    config.state_dir = state_dir;
    MeasurementService svc(config);
    auto submitted = svc.submit(kSmallPlan);
    ASSERT_EQ(submitted.status, 202) << submitted.error;
    finished_id = submitted.id;
    ASSERT_TRUE(wait_for_state(svc, finished_id, RunState::completed));
  }

  // A state dir holding only finished runs: the service serves their
  // history without spawning a single thread.
  const std::size_t before = thread_count();
  ServiceConfig config;
  config.state_dir = state_dir;
  MeasurementService svc(config);
  EXPECT_EQ(svc.recovered_runs(), 0u);
  auto history = svc.status(finished_id);
  ASSERT_TRUE(history.has_value());
  EXPECT_EQ(history->state, RunState::completed);
  EXPECT_EQ(thread_count(), before);

  // The first submit starts the pool, and the run completes.
  auto submitted = svc.submit(kSmallPlan);
  ASSERT_EQ(submitted.status, 202) << submitted.error;
  EXPECT_EQ(thread_count(), before + config.workers);
  ASSERT_TRUE(wait_for_state(svc, submitted.id, RunState::completed));
  auto jsonl = svc.records_jsonl(submitted.id);
  ASSERT_TRUE(jsonl.has_value());
  EXPECT_EQ(*jsonl, baseline_jsonl(kSmallPlan));
  svc.drain();
  EXPECT_EQ(settled_thread_count(before), before);
}

TEST(Service, DrainWithoutWorkersReturns) {
  const std::size_t before = thread_count();
  const ScratchDir scratch("svc-drain-idle");
  ServiceConfig config;
  config.state_dir = scratch.path();
  MeasurementService svc(config);
  svc.drain();
  svc.drain();  // idempotent
  EXPECT_TRUE(svc.draining());
  EXPECT_EQ(thread_count(), before);
  EXPECT_EQ(svc.submit(kSmallPlan).status, 503);
  EXPECT_EQ(thread_count(), before);
}

TEST(Service, RunCompletesWithStreamedVerdictsAndByteIdenticalRecords) {
  const ScratchDir scratch("svc-lifecycle");
  ServiceConfig config;
  config.state_dir = scratch.path();
  MeasurementService svc(config);

  auto submitted = svc.submit(kSmallPlan);
  ASSERT_EQ(submitted.status, 202) << submitted.error;
  ASSERT_TRUE(wait_for_state(svc, submitted.id, RunState::completed));

  auto status = svc.status(submitted.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->probes_total, 36u);
  EXPECT_EQ(status->probes_done, 36u);
  EXPECT_EQ(status->not_run, 0u);
  EXPECT_FALSE(status->recovered);
  ASSERT_TRUE(status->census.is_object());
  EXPECT_EQ(status->census["probes"].as_int(), 36);

  // The verdict stream carries every record exactly once, and the cursor
  // pages through it.
  auto all = svc.verdicts(submitted.id, 0);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->lines.size(), 36u);
  EXPECT_TRUE(all->finished);
  auto tail = svc.verdicts(submitted.id, 30);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->lines.size(), 6u);
  EXPECT_EQ(tail->next_seq, 36u);

  // Byte identity: the service's record surface equals a plain in-process
  // run of the same plan.
  auto jsonl = svc.records_jsonl(submitted.id);
  ASSERT_TRUE(jsonl.has_value());
  EXPECT_EQ(*jsonl, baseline_jsonl(kSmallPlan));
}

TEST(Service, CompletedIsNeverSeenBeforeTheDoneMarkerIsOnDisk) {
  // A client that reads `completed` must find the run's done marker durable:
  // a crash between the two would otherwise resume a run the client already
  // saw finish. Back-to-back one-probe runs, each polled without pause.
  const ScratchDir scratch("svc-done-order");
  ServiceConfig config;
  config.state_dir = scratch.path();
  MeasurementService svc(config);
  const std::string plan =
      R"({"seed": 9, "orgs": [{"org": "TinyNet", "asn": 64740, "country": "US",
           "probes": 1}]})";
  constexpr int kRuns = 50;
  int early = 0;
  for (int i = 0; i < kRuns; ++i) {
    auto submitted = svc.submit(plan);
    ASSERT_EQ(submitted.status, 202) << submitted.error;
    const std::string done_path = scratch.path() + "/" + submitted.id + ".done";
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
      auto status = svc.status(submitted.id);
      ASSERT_TRUE(status.has_value());
      if (status->state == RunState::completed) {
        std::ifstream done_file(done_path);
        std::stringstream text;
        text << done_file.rdbuf();
        auto done = jsonio::parse(text.str());
        if (!done || (*done)["state"].as_string() != "completed") ++early;
        break;
      }
      ASSERT_TRUE(status->state == RunState::queued || status->state == RunState::running);
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << submitted.id;
    }
  }
  EXPECT_EQ(early, 0) << early << " of " << kRuns
                      << " runs read completed before their done marker existed";
}

TEST(Service, VerdictLinesInFleetOrderAreTheRecordLines) {
  // Each verdict line is the probe's record: streamed live in completion
  // order, and rebuilt from the journal when a later process serves the
  // run from history.
  const ScratchDir scratch("svc-verdict-records");
  const std::string& state_dir = scratch.path();
  std::string id;
  {
    ServiceConfig config;
    config.state_dir = state_dir;
    config.run_threads = 2;
    MeasurementService svc(config);
    auto submitted = svc.submit(kSmallPlan);
    ASSERT_EQ(submitted.status, 202) << submitted.error;
    id = submitted.id;
    ASSERT_TRUE(wait_for_state(svc, id, RunState::completed));
    auto jsonl = svc.records_jsonl(id);
    ASSERT_TRUE(jsonl.has_value());
    EXPECT_EQ(verdicts_in_fleet_order(svc, id, kSmallPlan), *jsonl);
    svc.drain();
  }
  ServiceConfig config;
  config.state_dir = state_dir;
  MeasurementService svc(config);
  auto jsonl = svc.records_jsonl(id);
  ASSERT_TRUE(jsonl.has_value());
  EXPECT_EQ(*jsonl, baseline_jsonl(kSmallPlan));
  EXPECT_EQ(verdicts_in_fleet_order(svc, id, kSmallPlan), *jsonl);
}

TEST(Service, TenantCapAnswers429AndTenantsAreIsolated) {
  const ScratchDir scratch("svc-tenants");
  ServiceConfig config;
  config.state_dir = scratch.path();
  config.workers = 2;
  config.tenant_cap = 1;
  MeasurementService svc(config);

  // A paced run keeps tenant "alice" at her cap.
  auto alice = svc.submit(paced_plan("alice", 200, 20));
  ASSERT_EQ(alice.status, 202) << alice.error;
  auto alice_again = svc.submit(paced_plan("alice", 10, 0));
  EXPECT_EQ(alice_again.status, 429);
  // A different tenant is unaffected by alice's cap.
  auto bob = svc.submit(paced_plan("bob", 10, 0));
  EXPECT_EQ(bob.status, 202) << bob.error;

  ASSERT_TRUE(wait_for_state(svc, bob.id, RunState::completed));
  EXPECT_TRUE(svc.cancel(alice.id));
  ASSERT_TRUE(wait_for_state(svc, alice.id, RunState::cancelled));
  // Once alice's run is terminal she is under the cap again.
  auto alice_after = svc.submit(paced_plan("alice", 5, 0));
  EXPECT_EQ(alice_after.status, 202) << alice_after.error;
  ASSERT_TRUE(wait_for_state(svc, alice_after.id, RunState::completed));
}

TEST(Service, CancelDrainsInFlightProbesAndKeepsCompletedRecords) {
  const ScratchDir scratch("svc-cancel");
  ServiceConfig config;
  config.state_dir = scratch.path();
  MeasurementService svc(config);

  auto submitted = svc.submit(paced_plan("carol", 300, 15));
  ASSERT_EQ(submitted.status, 202) << submitted.error;
  // Let some probes complete, then cancel.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    auto status = svc.status(submitted.id);
    if (status && status->probes_done >= 10) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(svc.cancel(submitted.id));
  ASSERT_TRUE(wait_for_state(svc, submitted.id, RunState::cancelled));

  auto status = svc.status(submitted.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_GE(status->probes_done, 10u);
  EXPECT_GT(status->not_run, 0u);
  EXPECT_EQ(status->probes_done + status->not_run, 300u);
  auto page = svc.verdicts(submitted.id, 0);
  ASSERT_TRUE(page.has_value());
  EXPECT_TRUE(page->finished);
  EXPECT_EQ(page->lines.size(), status->probes_done);
  EXPECT_FALSE(svc.cancel("run-999999"));
}

TEST(Service, DrainThenNewServiceResumesToByteIdenticalRecords) {
  const ScratchDir scratch("svc-resume");
  const std::string& state_dir = scratch.path();
  const std::string plan = paced_plan("dave", 120, 10);
  std::string id;
  {
    ServiceConfig config;
    config.state_dir = state_dir;
    MeasurementService svc(config);
    auto submitted = svc.submit(plan);
    ASSERT_EQ(submitted.status, 202) << submitted.error;
    id = submitted.id;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      auto status = svc.status(id);
      if (status && status->probes_done >= 20) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    svc.drain();  // SIGTERM path: journals sync, manifest stays unmarked
  }

  // Recovered work starts the pool at construction, before any submit.
  const std::size_t before = thread_count();
  ServiceConfig config;
  config.state_dir = state_dir;
  MeasurementService svc(config);
  EXPECT_EQ(svc.recovered_runs(), 1u);
  EXPECT_EQ(thread_count(), before + config.workers);
  auto status = svc.status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->recovered);
  ASSERT_TRUE(wait_for_state(svc, id, RunState::completed));

  auto jsonl = svc.records_jsonl(id);
  ASSERT_TRUE(jsonl.has_value());
  EXPECT_EQ(*jsonl, baseline_jsonl(plan));
  // Every verdict is replayed exactly once across the two processes' worth
  // of publication (restored records first, fresh ones after).
  auto page = svc.verdicts(id, 0);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->lines.size(), 120u);
}

TEST(Service, CancelAtTwoRunThreadsThenRestartKeepsEveryMeasuredRecord) {
  // At run_threads = 2 both shards append to the run's one journal. A user
  // cancel finalizes the run, and after a restart its /records are read
  // from that journal — so it must hold every record measured before the
  // cancel, and nothing may sit beside it.
  const ScratchDir scratch("svc-cancel-shards");
  const std::string& state_dir = scratch.path();
  std::string id;
  std::string before_restart;
  std::size_t measured = 0;
  {
    ServiceConfig config;
    config.state_dir = state_dir;
    config.run_threads = 2;
    MeasurementService svc(config);
    auto submitted = svc.submit(paced_plan("erin", 300, 15));
    ASSERT_EQ(submitted.status, 202) << submitted.error;
    id = submitted.id;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      auto status = svc.status(id);
      if (status && status->probes_done >= 40) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(svc.cancel(id));
    ASSERT_TRUE(wait_for_state(svc, id, RunState::cancelled));
    auto status = svc.status(id);
    ASSERT_TRUE(status.has_value());
    measured = status->probes_done;
    EXPECT_GE(measured, 40u);
    EXPECT_GT(status->not_run, 0u);
    auto jsonl = svc.records_jsonl(id);
    ASSERT_TRUE(jsonl.has_value());
    before_restart = *jsonl;
  }
  EXPECT_TRUE(testutil::shard_files_beside(state_dir + "/" + id + ".journal").empty());

  ServiceConfig config;
  config.state_dir = state_dir;
  config.run_threads = 2;
  MeasurementService svc(config);
  EXPECT_EQ(svc.recovered_runs(), 0u);  // terminal: nothing to resume
  auto jsonl = svc.records_jsonl(id);
  ASSERT_TRUE(jsonl.has_value());
  std::size_t lines = 0;
  for (char c : *jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, measured);
  EXPECT_EQ(*jsonl, before_restart);
}

TEST(Service, ConcurrentTenantRunsKeepIsolatedJournalsAndRecords) {
  const ScratchDir scratch("svc-concurrent");
  ServiceConfig config;
  config.state_dir = scratch.path();
  config.workers = 2;
  MeasurementService svc(config);

  const std::string plan_a =
      R"({"seed": 11, "tenant": "alice", "orgs": [
           {"org": "NetA", "asn": 64720, "country": "US", "probes": 30, "cpe_xb6": 2}]})";
  const std::string plan_b =
      R"({"seed": 22, "tenant": "bob", "orgs": [
           {"org": "NetB", "asn": 64721, "country": "DE", "probes": 20, "isp_allfour": 1}]})";
  auto a = svc.submit(plan_a);
  auto b = svc.submit(plan_b);
  ASSERT_EQ(a.status, 202) << a.error;
  ASSERT_EQ(b.status, 202) << b.error;
  ASSERT_TRUE(wait_for_state(svc, a.id, RunState::completed));
  ASSERT_TRUE(wait_for_state(svc, b.id, RunState::completed));

  // Concurrent execution changed nothing: each run's records equal its own
  // single-run baseline, so the runs shared no journal and no state.
  EXPECT_EQ(*svc.records_jsonl(a.id), baseline_jsonl(plan_a));
  EXPECT_EQ(*svc.records_jsonl(b.id), baseline_jsonl(plan_b));
  EXPECT_NE(*svc.records_jsonl(a.id), *svc.records_jsonl(b.id));

  auto list = svc.list();
  EXPECT_EQ(list.size(), 2u);
}

TEST(Service, TerminalRunRetentionSpillsAndReloadsFromJournal) {
  const ScratchDir scratch("svc-retain");
  ServiceConfig config;
  config.state_dir = scratch.path();
  config.retain_terminal_runs = 1;
  MeasurementService svc(config);

  const std::string plan_a =
      R"({"seed": 31, "orgs": [{"org": "OldNet", "asn": 64730, "country": "US",
           "probes": 12, "cpe_xb6": 1}]})";
  const std::string plan_b =
      R"({"seed": 32, "orgs": [{"org": "NewNet", "asn": 64731, "country": "DE",
           "probes": 8}]})";
  auto a = svc.submit(plan_a);
  ASSERT_EQ(a.status, 202) << a.error;
  ASSERT_TRUE(wait_for_state(svc, a.id, RunState::completed));
  auto b = svc.submit(plan_b);
  ASSERT_EQ(b.status, 202) << b.error;
  ASSERT_TRUE(wait_for_state(svc, b.id, RunState::completed));

  // With retain_terminal_runs = 1, completing b spilled a's in-memory
  // records. Status still answers from the done marker without a reload...
  auto status = svc.status(a.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, RunState::completed);
  EXPECT_EQ(status->probes_done, 12u);

  // ...and the verdict / record surfaces lazily reload from the journal,
  // byte-identical to what the run produced while resident.
  auto page = svc.verdicts(a.id, 0);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->lines.size(), 12u);
  EXPECT_TRUE(page->finished);
  auto jsonl = svc.records_jsonl(a.id);
  ASSERT_TRUE(jsonl.has_value());
  EXPECT_EQ(*jsonl, baseline_jsonl(plan_a));
  EXPECT_EQ(*svc.records_jsonl(b.id), baseline_jsonl(plan_b));
}

TEST(Service, CutOffRunServesTheSameRecordsBeforeAndAfterASpill) {
  // A 1 ms budget against a 4 ms pace cuts every probe off before
  // detection: each record carries a default detection report, which the
  // reload must reproduce byte for byte.
  const ScratchDir scratch("svc-cutoff-spill");
  ServiceConfig config;
  config.state_dir = scratch.path();
  config.retain_terminal_runs = 1;
  config.probe_deadline = std::chrono::milliseconds(1);
  MeasurementService svc(config);

  const std::string plan = paced_plan("erin", 4, 4);
  auto a = svc.submit(plan);
  ASSERT_EQ(a.status, 202) << a.error;
  ASSERT_TRUE(wait_for_state(svc, a.id, RunState::completed));
  auto resident = svc.records_jsonl(a.id);
  ASSERT_TRUE(resident.has_value());
  auto census = svc.status(a.id)->census;
  EXPECT_EQ(census["deadline_exceeded"].as_int(), 4);

  // Completing a second run spills the first; its records come back from
  // the journal. The drain joins the worker, so the spill has happened.
  auto b = svc.submit(plan);
  ASSERT_EQ(b.status, 202) << b.error;
  ASSERT_TRUE(wait_for_state(svc, b.id, RunState::completed));
  svc.drain();
  auto reloaded = svc.records_jsonl(a.id);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->size(), resident->size());
  EXPECT_EQ(*reloaded, *resident);
}

TEST(Service, HistoryJournalOfAnotherPlanServesNoRecords) {
  // Two runs whose fleets share probe ids but not a fingerprint. Once the
  // second run's journal sits under the first run's name, the first run's
  // history must not serve the second run's records.
  const ScratchDir scratch("svc-foreign-journal");
  const std::string& state_dir = scratch.path();
  const std::string plan_a =
      R"({"seed": 41, "orgs": [{"org": "HomeNet", "asn": 64740, "country": "US",
           "probes": 6}]})";
  const std::string plan_b =
      R"({"seed": 42, "orgs": [{"org": "HomeNet", "asn": 64740, "country": "US",
           "probes": 6}]})";
  std::string a_id, b_id;
  {
    ServiceConfig config;
    config.state_dir = state_dir;
    MeasurementService svc(config);
    auto a = svc.submit(plan_a);
    auto b = svc.submit(plan_b);
    ASSERT_EQ(a.status, 202) << a.error;
    ASSERT_EQ(b.status, 202) << b.error;
    a_id = a.id;
    b_id = b.id;
    ASSERT_TRUE(wait_for_state(svc, a_id, RunState::completed));
    ASSERT_TRUE(wait_for_state(svc, b_id, RunState::completed));
    ASSERT_FALSE(svc.records_jsonl(b_id)->empty());
    svc.drain();
  }
  std::filesystem::copy_file(state_dir + "/" + b_id + ".journal",
                             state_dir + "/" + a_id + ".journal",
                             std::filesystem::copy_options::overwrite_existing);

  ServiceConfig config;
  config.state_dir = state_dir;
  MeasurementService svc(config);
  auto jsonl = svc.records_jsonl(a_id);
  ASSERT_TRUE(jsonl.has_value());
  EXPECT_EQ(*jsonl, "");
  auto page = svc.verdicts(a_id, 0);
  ASSERT_TRUE(page.has_value());
  EXPECT_TRUE(page->lines.empty());
  EXPECT_EQ(*svc.records_jsonl(b_id), baseline_jsonl(plan_b));
}

// --- metrics / census agreement ---

TEST(Service, MetricsTotalsAgreeWithRunCensusToTheDigit) {
  obs::Config obs_config;
  obs_config.metrics = true;
  obs::enable(obs_config);
  auto& registry = obs::registry();
  const auto queries_before = registry.counter("transport_queries_total").value();
  const auto attempts_before = registry.counter("transport_attempts_total").value();
  const auto answered_before = registry.counter("transport_answered_total").value();
  const auto ok_before = registry.counter("probe_ok_total").value();

  const ScratchDir scratch("svc-metrics");
  ServiceConfig config;
  config.state_dir = scratch.path();
  MeasurementService svc(config);
  auto submitted = svc.submit(kSmallPlan);
  ASSERT_EQ(submitted.status, 202) << submitted.error;
  ASSERT_TRUE(wait_for_state(svc, submitted.id, RunState::completed));

  auto status = svc.status(submitted.id);
  ASSERT_TRUE(status.has_value());
  const auto& census = status->census;
  ASSERT_TRUE(census.is_object());
  // The registry deltas equal the census telemetry exactly — the promise
  // that a /metrics scrape and the run's own accounting never disagree.
  EXPECT_EQ(registry.counter("transport_queries_total").value() - queries_before,
            static_cast<std::uint64_t>(census["telemetry"]["queries"].as_int()));
  EXPECT_EQ(registry.counter("transport_attempts_total").value() - attempts_before,
            static_cast<std::uint64_t>(census["telemetry"]["attempts"].as_int()));
  EXPECT_EQ(registry.counter("transport_answered_total").value() - answered_before,
            static_cast<std::uint64_t>(census["telemetry"]["answered"].as_int()));
  EXPECT_EQ(registry.counter("probe_ok_total").value() - ok_before,
            static_cast<std::uint64_t>(census["ok"].as_int()));
  obs::disable();
}

// --- the HTTP API over a real socket ---

TEST(ServiceApi, EndToEndOverLoopbackSocket) {
  const ScratchDir scratch("svc-api");
  ServiceConfig config;
  config.state_dir = scratch.path();
  MeasurementService svc(config);
  service::HttpServer server({}, [&svc](const service::HttpRequest& request) {
    return service::route_request(svc, request);
  });
  const std::uint16_t port = server.port();
  ASSERT_GT(port, 0);

  auto health = http_request(port, "GET", "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);

  auto submitted = http_request(port, "POST", "/v1/fleets", kSmallPlan);
  ASSERT_TRUE(submitted.ok);
  ASSERT_EQ(submitted.status, 202) << submitted.body;
  EXPECT_NE(submitted.body.find("run-000001"), std::string::npos);

  // Malformed body → 400 with the parse-error detail on the wire.
  auto bad = http_request(port, "POST", "/v1/fleets", "{\"orgs\": [,]}");
  ASSERT_TRUE(bad.ok);
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("\"offset\""), std::string::npos);
  EXPECT_NE(bad.body.find("-->"), std::string::npos);

  // Poll status over HTTP until completed.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool completed = false;
  while (std::chrono::steady_clock::now() < deadline && !completed) {
    auto status = http_request(port, "GET", "/v1/fleets/run-000001");
    completed = status.ok && status.body.find("\"state\":\"completed\"") != std::string::npos;
    if (!completed) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(completed);

  // The chunked verdict stream decodes to one JSON object per probe, and
  // the from_seq cursor resumes mid-stream.
  auto verdicts = http_request(port, "GET", "/v1/fleets/run-000001/verdicts");
  ASSERT_TRUE(verdicts.ok);
  EXPECT_EQ(verdicts.status, 200);
  EXPECT_EQ(verdicts.headers.at("transfer-encoding"), "chunked");
  std::size_t lines = 0;
  for (char c : verdicts.body) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 36u);
  auto resumed = http_request(port, "GET", "/v1/fleets/run-000001/verdicts?from_seq=30");
  ASSERT_TRUE(resumed.ok);
  std::size_t resumed_lines = 0;
  for (char c : resumed.body) resumed_lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(resumed_lines, 6u);

  // A malformed cursor is a 400, never a silent full replay ("abc" → 0) or
  // a silently empty stream ("-1" → 2^64-1).
  EXPECT_EQ(http_request(port, "GET", "/v1/fleets/run-000001/verdicts?from_seq=abc").status,
            400);
  EXPECT_EQ(http_request(port, "GET", "/v1/fleets/run-000001/verdicts?from_seq=-1").status,
            400);

  // Records endpoint serves the byte-identity surface over the wire.
  auto records = http_request(port, "GET", "/v1/fleets/run-000001/records");
  ASSERT_TRUE(records.ok);
  EXPECT_EQ(records.body, baseline_jsonl(kSmallPlan));

  auto metrics = http_request(port, "GET", "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers.at("content-type").find("text/plain"), std::string::npos);

  // Routing edges: unknown paths, unknown ids, wrong methods.
  EXPECT_EQ(http_request(port, "GET", "/nope").status, 404);
  EXPECT_EQ(http_request(port, "GET", "/v1/fleets/run-424242").status, 404);
  EXPECT_EQ(http_request(port, "DELETE", "/v1/fleets").status, 405);
  EXPECT_EQ(http_request(port, "GET", "/v1/fleets/run-000001/cancel").status, 405);

  auto listing = http_request(port, "GET", "/v1/fleets");
  ASSERT_TRUE(listing.ok);
  EXPECT_NE(listing.body.find("\"fleets\""), std::string::npos);

  server.stop();
  svc.drain();
}

}  // namespace
}  // namespace dnslocate
