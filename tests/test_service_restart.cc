// The daemon's crash story, end to end: start dnslocated as a real child
// process, submit a paced fleet, `kill -9` it mid-run, start a fresh daemon
// on the same state directory, and assert the resumed MeasurementRun is
// byte-identical to an uninterrupted in-process run of the same plan — at
// one run thread (one journal) and at two (per-shard journal segments).
// Also exercises the SIGTERM clean-drain exit path.
//
// The daemon binary's path arrives via the DNSLOCATED_BIN compile
// definition (tests/CMakeLists.txt points it at the built target).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "atlas/fleet_json.h"
#include "atlas/journal.h"
#include "atlas/measurement.h"
#include "atlas/sharding.h"
#include "report/results_io.h"
#include "service_test_util.h"

namespace dnslocate {
namespace {

using testutil::http_request;
using testutil::make_scratch_dir;
using testutil::wait_for_port_file;

// 300 paced probes ≈ seconds of runtime: long enough to kill mid-run with
// dozens of records journaled, short enough for CI.
constexpr const char* kPlan =
    R"({"seed": 7, "tenant": "restart", "pace_ms": 15, "ipv6_fraction": 0.4, "orgs": [
         {"org": "RestartNet", "asn": 64730, "country": "US", "probes": 240,
          "cpe_xb6": 4, "isp_allfour": 2},
         {"org": "SideNet", "asn": 64731, "country": "DE", "probes": 60,
          "one_allowed": 2}]})";

pid_t spawn_daemon(const std::string& state_dir, const std::string& port_file,
                   unsigned run_threads) {
  // Unlink before forking so wait_for_port_file can never read a previous
  // daemon's port.
  ::unlink(port_file.c_str());
  const std::string threads = std::to_string(run_threads);
  pid_t pid = fork();
  if (pid == 0) {
    execl(DNSLOCATED_BIN, DNSLOCATED_BIN, "--state-dir", state_dir.c_str(), "--port-file",
          port_file.c_str(), "--run-threads", threads.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  return pid;
}

std::size_t probes_done(std::uint16_t port, const std::string& id) {
  auto status = http_request(port, "GET", "/v1/fleets/" + id);
  if (!status.ok) return 0;
  const std::string needle = "\"probes_done\":";
  std::size_t pos = status.body.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(status.body.c_str() + pos + needle.size(), nullptr, 10);
}

/// Submit kPlan to a daemon at `run_threads`, kill -9 it once `kill_after`
/// probes are done, restart it on the same state directory, and require the
/// resumed run's /records to equal an uninterrupted in-process run
/// byte for byte. Ends with a SIGTERM drain that must exit 0.
void kill9_then_resume(const char* tag, unsigned run_threads, std::size_t kill_after) {
  const std::string state_dir = make_scratch_dir(tag);
  const std::string port_file = state_dir + "/port";

  // --- first daemon: submit, let it journal some records, kill -9 ---
  pid_t first = spawn_daemon(state_dir, port_file, run_threads);
  ASSERT_GT(first, 0);
  std::uint16_t port = wait_for_port_file(port_file);
  ASSERT_GT(port, 0) << "daemon never wrote its port file";

  auto submitted = http_request(port, "POST", "/v1/fleets", kPlan);
  ASSERT_TRUE(submitted.ok);
  ASSERT_EQ(submitted.status, 202) << submitted.body;
  const std::string id = "run-000001";
  ASSERT_NE(submitted.body.find(id), std::string::npos);

  // Wait until well past one journal batch (32 records) so the resumed run
  // genuinely reuses journaled work instead of re-running everything.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::size_t done = 0;
  while (std::chrono::steady_clock::now() < deadline && done < kill_after) {
    done = probes_done(port, id);
    if (done < kill_after) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_GE(done, kill_after) << "fleet never reached the kill point";
  ASSERT_EQ(kill(first, SIGKILL), 0);
  int wait_status = 0;
  ASSERT_EQ(waitpid(first, &wait_status, 0), first);
  ASSERT_TRUE(WIFSIGNALED(wait_status));

  // A multi-shard run journals to per-shard segments until its shards end,
  // so the kill leaves them behind, holding records, for the restart to
  // absorb.
  const std::string journal = state_dir + "/" + id + ".journal";
  if (run_threads > 1) {
    std::size_t segment_records = 0;
    for (const std::string& segment : atlas::find_shard_segments(journal))
      segment_records += atlas::load_journal(segment).records.size();
    EXPECT_GT(segment_records, 0u);
  } else {
    EXPECT_TRUE(atlas::find_shard_segments(journal).empty());
  }

  // --- second daemon: same state dir; must recover and finish the run ---
  pid_t second = spawn_daemon(state_dir, port_file, run_threads);
  ASSERT_GT(second, 0);
  port = wait_for_port_file(port_file);
  ASSERT_GT(port, 0);

  auto health = http_request(port, "GET", "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_NE(health.body.find("\"recovered_runs\":1"), std::string::npos) << health.body;

  bool completed = false;
  const auto resume_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < resume_deadline && !completed) {
    auto status = http_request(port, "GET", "/v1/fleets/" + id);
    if (status.ok) {
      EXPECT_NE(status.body.find("\"recovered\":true"), std::string::npos) << status.body;
      completed = status.body.find("\"state\":\"completed\"") != std::string::npos;
    }
    if (!completed) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(completed) << "recovered run never completed";

  auto records = http_request(port, "GET", "/v1/fleets/" + id + "/records");
  ASSERT_TRUE(records.ok);
  ASSERT_EQ(records.status, 200);

  // The heart of the test: kill -9 + restart + resume produced exactly the
  // bytes an uninterrupted run produces (run_to_jsonl is wall-clock-free,
  // the daemon runs fleets with strip_raw_responses=true, and records do
  // not depend on the shard count).
  auto parsed = atlas::fleet_from_json(kPlan);
  ASSERT_TRUE(parsed.ok());
  atlas::MeasurementOptions options;
  options.strip_raw_responses = true;
  options.shards = 1;
  const std::string uninterrupted = report::run_to_jsonl(atlas::run_fleet(parsed.generate(), options));
  EXPECT_EQ(records.body, uninterrupted);
  EXPECT_TRUE(atlas::find_shard_segments(journal).empty());

  // The verdict stream saw every probe exactly once too.
  auto verdicts = http_request(port, "GET", "/v1/fleets/" + id + "/verdicts");
  ASSERT_TRUE(verdicts.ok);
  std::size_t lines = 0;
  for (char c : verdicts.body) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 300u);

  // --- SIGTERM: clean drain, exit 0 ---
  ASSERT_EQ(kill(second, SIGTERM), 0);
  ASSERT_EQ(waitpid(second, &wait_status, 0), second);
  ASSERT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 0);
}

TEST(ServiceRestart, Kill9MidRunThenResumeIsByteIdenticalToUninterrupted) {
  kill9_then_resume("svc-kill9", 1, 60);
}

TEST(ServiceRestart, Kill9MidRunAtTwoRunThreadsResumesFromSegmentsByteIdentically) {
  // Two shards of ~150 probes each: by 100 done, a shard has flushed a
  // journal batch (32 records) to its segment.
  kill9_then_resume("svc-kill9-shards", 2, 100);
}

}  // namespace
}  // namespace dnslocate
