// End-to-end observability: a measured fleet must leave registry totals
// that agree exactly with the census sums computed from the per-record
// structs, traces must be deterministic under the simulated clock, and a
// run with obs disabled must leave no trace at all. The journal counters
// agree with the journal file the run wrote, at one shard and at four.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "atlas/journal.h"
#include "atlas/measurement.h"
#include "jsonio/json.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "report/aggregate.h"
#include "report/html_report.h"

using namespace dnslocate;

namespace {

class ObsPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::disable();
    obs::registry().reset();
    obs::collector().clear();
  }
  void TearDown() override {
    obs::disable();
    obs::registry().reset();
    obs::collector().clear();
  }

  static std::vector<atlas::ProbeSpec> small_fleet() {
    atlas::FleetConfig config;
    config.scale = 0.004;  // ~46 probes: fast, but covers every stage
    return atlas::generate_fleet(config);
  }
};

TEST_F(ObsPipelineTest, RegistryTotalsAgreeExactlyWithCensus) {
  obs::Config config;
  config.metrics = true;
  obs::enable(config);

  auto fleet = small_fleet();
  auto run = atlas::run_fleet(fleet);
  auto census = report::run_census(run);
  auto retry = report::retry_census(run);
  auto counter = [](const char* name) { return obs::registry().counter(name).value(); };

  // Transport telemetry: the registry mirrors record_telemetry, the census
  // sums the same per-probe structs — they must agree to the digit.
  EXPECT_EQ(counter("transport_queries_total"), census.telemetry.queries);
  EXPECT_EQ(counter("transport_attempts_total"), census.telemetry.attempts);
  EXPECT_EQ(counter("transport_retries_total"), census.telemetry.retries);
  EXPECT_EQ(counter("transport_timeouts_total"), census.telemetry.timeouts);
  EXPECT_EQ(counter("transport_answered_total"), census.telemetry.answered);
  EXPECT_EQ(counter("transport_queries_total"), retry.totals.queries);
  EXPECT_EQ(counter("transport_retries_total"), retry.totals.retries);

  // Drop and fault counters, mirrored once per completed probe.
  EXPECT_EQ(counter("sim_drop_no_route_total"), census.drops.no_route);
  EXPECT_EQ(counter("sim_drop_ttl_expired_total"), census.drops.ttl_expired);
  EXPECT_EQ(counter("sim_drop_no_listener_total"), census.drops.no_listener);
  EXPECT_EQ(counter("sim_drop_by_hook_total"), census.drops.by_hook);
  EXPECT_EQ(counter("sim_drop_link_loss_total"), census.drops.link_loss);
  EXPECT_EQ(counter("sim_drop_queue_overflow_total"), census.drops.queue_overflow);
  EXPECT_EQ(counter("sim_drop_fault_burst_total"), census.drops.fault_burst);
  EXPECT_EQ(counter("sim_drop_fault_random_total"), census.drops.fault_random);
  EXPECT_EQ(counter("fault_burst_drops_total"), census.faults.burst_drops);
  EXPECT_EQ(counter("fault_random_drops_total"), census.faults.random_drops);
  EXPECT_EQ(counter("fault_reordered_total"), census.faults.reordered);
  EXPECT_EQ(counter("fault_duplicated_total"), census.faults.duplicated);
  EXPECT_EQ(counter("fault_truncated_total"), census.faults.truncated);
  EXPECT_EQ(counter("fault_jittered_total"), census.faults.jittered);

  // Supervision outcomes.
  EXPECT_EQ(counter("probe_ok_total"), census.ok);
  EXPECT_EQ(counter("probe_failed_total"), census.failed);
  EXPECT_EQ(counter("probe_deadline_total"), census.deadline_exceeded);
  EXPECT_EQ(counter("probe_partial_total"), census.partial_verdicts);
  EXPECT_EQ(counter("pipeline_runs_total"), run.records.size());
  EXPECT_EQ(obs::registry().histogram("probe_wall_us").count(), run.records.size());

  // The answered-RTT histogram saw exactly the answered queries.
  EXPECT_EQ(obs::registry().histogram("transport_rtt_us").count(),
            census.telemetry.answered);
}

TEST_F(ObsPipelineTest, JournalMetricsAgreeExactlyWithTheJournalFile) {
  obs::Config config;
  config.metrics = true;
  obs::enable(config);
  auto counter = [](const char* name) { return obs::registry().counter(name).value(); };
  auto fleet = small_fleet();

  for (unsigned shards : {1u, 4u}) {
    const std::string path =
        ::testing::TempDir() + "obs_journal_" + std::to_string(shards) + ".journal";
    const std::uint64_t records_before = counter("journal_records_total");
    const std::uint64_t bytes_before = counter("journal_bytes_total");
    const std::uint64_t fsyncs_before = counter("journal_fsyncs_total");

    atlas::MeasurementOptions options;
    options.shards = shards;
    options.journal_path = path;
    // No cadence fsync during the run: a clean run then syncs the header
    // and the run end, and nothing else.
    options.journal_sync_interval = std::chrono::hours(1);
    auto run = atlas::run_fleet(fleet, options);
    ASSERT_EQ(run.records.size(), fleet.size());

    std::ifstream file(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(file)),
                           std::istreambuf_iterator<char>());
    const std::size_t header_end = text.find('\n');
    ASSERT_NE(header_end, std::string::npos);
    auto loaded = atlas::parse_journal(text);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    EXPECT_EQ(loaded.damaged, 0u);
    EXPECT_EQ(loaded.records.size(), run.records.size()) << shards << " shards";

    EXPECT_EQ(counter("journal_records_total") - records_before, loaded.records.size())
        << shards << " shards";
    EXPECT_EQ(counter("journal_bytes_total") - bytes_before, text.size() - (header_end + 1))
        << shards << " shards";
    EXPECT_EQ(counter("journal_fsyncs_total") - fsyncs_before, 2u) << shards << " shards";
    std::remove(path.c_str());
  }
}

TEST_F(ObsPipelineTest, DisabledRunRecordsNothing) {
  auto fleet = small_fleet();
  auto run = atlas::run_fleet(fleet);
  ASSERT_FALSE(run.records.empty());
  auto snapshot = obs::registry().snapshot();
  for (const auto& [name, value] : snapshot.counters) EXPECT_EQ(value, 0u) << name;
  for (const auto& [name, hist] : snapshot.histograms) EXPECT_EQ(hist.count, 0u) << name;
  EXPECT_TRUE(obs::collector().gather().empty());
}

TEST_F(ObsPipelineTest, ProbeTraceIsDeterministic) {
  obs::Config config;
  config.metrics = true;
  config.tracing = true;
  obs::enable(config);

  auto fleet = small_fleet();
  const atlas::ProbeSpec& spec = fleet.front();

  atlas::run_probe(spec);
  std::string first = obs::chrome_trace_json();
  obs::collector().clear();
  atlas::run_probe(spec);
  std::string second = obs::chrome_trace_json();

  // Simulated clock + per-probe lane: byte-identical across runs.
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"clock\":\"sim\""), std::string::npos);
  EXPECT_NE(first.find("pipeline/run"), std::string::npos);
  EXPECT_NE(first.find("transport/query"), std::string::npos);
  EXPECT_NE(first.find("probe/run"), std::string::npos);
}

TEST_F(ObsPipelineTest, HtmlReportEmbedsMetricsWhenEnabled) {
  auto fleet = small_fleet();

  // Disabled: the report must not change shape.
  auto run = atlas::run_fleet(fleet);
  std::string plain = report::html_report(run);
  EXPECT_EQ(plain.find("Observability"), std::string::npos);
  EXPECT_EQ(plain.find("dnslocate-metrics"), std::string::npos);

  obs::Config config;
  config.metrics = true;
  obs::enable(config);
  run = atlas::run_fleet(fleet);
  std::string html = report::html_report(run);
  EXPECT_NE(html.find("<h2>Observability</h2>"), std::string::npos);

  // The embedded snapshot parses back and matches the live registry.
  auto begin = html.find("<script type=\"application/json\" id=\"dnslocate-metrics\">");
  ASSERT_NE(begin, std::string::npos);
  begin = html.find('>', begin) + 1;
  auto end = html.find("</script>", begin);
  ASSERT_NE(end, std::string::npos);
  auto parsed = jsonio::parse(html.substr(begin, end - begin));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(static_cast<std::uint64_t>((*parsed)["counters"]["pipeline_runs_total"].as_int()),
            run.records.size());
}

}  // namespace
