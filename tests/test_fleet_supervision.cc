// Fleet supervision: a throwing probe becomes a failed record, a hanging
// probe is cancelled at its deadline with a partial verdict, healthy probes
// are untouched, and max_failures stops a doomed campaign cleanly — the
// fleet executor itself never aborts.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <thread>

#include "atlas/journal.h"
#include "atlas/measurement.h"
#include "atlas/scenario.h"
#include "core/pipeline.h"
#include "report/aggregate.h"

namespace dnslocate {
namespace {

std::vector<atlas::ProbeSpec> small_fleet(std::size_t count) {
  atlas::FleetConfig config;
  config.scale = 0.02;
  auto fleet = atlas::generate_fleet(config);
  if (fleet.size() > count) fleet.resize(count);
  return fleet;
}

atlas::ProbeSpec interceptor_spec() {
  for (const auto& spec : small_fleet(200))
    if (spec.scenario.cpe.intercepts()) return spec;
  ADD_FAILURE() << "no CPE interceptor in the small fleet";
  return {};
}

TEST(FleetSupervision, MixedFleetCompletesWithoutAbort) {
  auto fleet = small_fleet(9);
  ASSERT_EQ(fleet.size(), 9u);

  // Roles by fleet position: throw / hang / healthy, three of each.
  std::map<std::uint32_t, int> role;
  for (std::size_t i = 0; i < fleet.size(); ++i)
    role[fleet[i].probe_id] = static_cast<int>(i % 3);

  atlas::MeasurementOptions options;
  options.shards = 4;
  options.probe_deadline = std::chrono::milliseconds(100);
  options.runner = [&role](const atlas::ProbeSpec& spec, const core::CancelToken& token) {
    switch (role.at(spec.probe_id)) {
      case 0: throw std::runtime_error("rigged to throw");
      case 1:  // Hang (cooperatively) until the deadline token fires.
        while (!token.cancelled())
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return atlas::ProbeRecord{};
      default: return atlas::run_probe(spec, token, true);
    }
  };
  auto run = atlas::run_fleet(fleet, options);

  ASSERT_EQ(run.records.size(), 9u);
  EXPECT_EQ(run.not_run, 0u);
  auto census = report::run_census(run);
  EXPECT_EQ(census.probes, 9u);
  EXPECT_EQ(census.ok, run.count_outcome(atlas::ProbeOutcome::ok));
  EXPECT_EQ(census.failed, 3u);
  EXPECT_EQ(census.deadline_exceeded, 3u);
  EXPECT_EQ(census.ok, 3u);
  EXPECT_EQ(census.failures.size(), 5u);  // capped at top_n

  for (const auto& record : run.records) {
    // Identity fields survive even for probes that never produced a verdict.
    EXPECT_FALSE(record.org.org.empty());
    switch (role.at(record.probe_id)) {
      case 0:
        EXPECT_EQ(record.outcome, atlas::ProbeOutcome::failed);
        EXPECT_EQ(record.error, "rigged to throw");
        break;
      case 1:
        EXPECT_EQ(record.outcome, atlas::ProbeOutcome::deadline_exceeded);
        EXPECT_NE(record.error.find("deadline"), std::string::npos);
        EXPECT_GE(record.elapsed, std::chrono::milliseconds(100));
        break;
      default:
        EXPECT_EQ(record.outcome, atlas::ProbeOutcome::ok);
        EXPECT_TRUE(record.error.empty());
    }
  }
  // The census table renders the outcome counts.
  std::string table = report::render_run_census(census).render();
  EXPECT_NE(table.find("deadline exceeded"), std::string::npos);
}

TEST(FleetSupervision, ThrowingScenarioBecomesFailedRecord) {
  // Regression: a scenario whose construction throws must not take down the
  // worker (std::terminate) — it records a failed probe and the rest of the
  // fleet completes under the *default* runner.
  auto fleet = small_fleet(4);
  ASSERT_EQ(fleet.size(), 4u);
  fleet[1].scenario.home_index = 0;  // rigged: Scenario rejects index 0

  auto run = atlas::run_fleet(fleet, {});
  ASSERT_EQ(run.records.size(), 4u);
  EXPECT_EQ(run.count_outcome(atlas::ProbeOutcome::failed), 1u);
  EXPECT_EQ(run.count_outcome(atlas::ProbeOutcome::ok), 3u);
  const auto& failed = run.records[1];
  EXPECT_EQ(failed.outcome, atlas::ProbeOutcome::failed);
  EXPECT_NE(failed.error.find("home_index"), std::string::npos);
  EXPECT_EQ(failed.probe_id, fleet[1].probe_id);
  EXPECT_FALSE(failed.verdict.intercepted());  // nothing fabricated
}

TEST(FleetSupervision, ExpiredTokenYieldsFullySkippedVerdict) {
  auto spec = interceptor_spec();
  auto token = core::CancelToken::manual();
  token.cancel();
  auto record = atlas::run_probe(spec, token);

  EXPECT_TRUE(record.verdict.partial());
  EXPECT_TRUE(record.verdict.stage_skipped(core::PipelineStage::detection));
  EXPECT_TRUE(record.verdict.stage_skipped(core::PipelineStage::cpe_check));
  EXPECT_TRUE(record.verdict.stage_skipped(core::PipelineStage::bogon));
  // Nothing ran, so nothing is claimed.
  EXPECT_FALSE(record.verdict.intercepted());
  EXPECT_EQ(record.verdict.location, core::InterceptorLocation::not_intercepted);
  EXPECT_EQ(record.verdict.telemetry.queries, 0u);
}

/// Forwards to an inner engine and cancels `token` after `after` queries.
class CancellingTransport : public core::SequentialTransport {
 public:
  CancellingTransport(core::AsyncQueryTransport& inner, core::CancelToken token,
                      std::size_t after)
      : inner_(inner), token_(std::move(token)), after_(after) {}

  core::QueryResult query(const netbase::Endpoint& server, const dnswire::Message& message,
                          const core::QueryOptions& options) override {
    auto result = core::query_one(inner_, server, message, options);
    if (++seen_ >= after_) token_.cancel();
    return result;
  }
  [[nodiscard]] bool supports_family(netbase::IpFamily family) const override {
    return inner_.transport().supports_family(family);
  }
  [[nodiscard]] bool supports_ttl() const override { return inner_.transport().supports_ttl(); }
  [[nodiscard]] bool supports_channel(simnet::Channel channel) const override {
    return inner_.transport().supports_channel(channel);
  }

 private:
  core::AsyncQueryTransport& inner_;
  core::CancelToken token_;
  std::size_t after_;
  std::size_t seen_ = 0;
};

TEST(FleetSupervision, MidRunCancellationKeepsDetectionSkipsLocalization) {
  // The budget dies right after the first query: detection (already in
  // flight) completes and is kept; localization is honestly "unknown",
  // never a fabricated CPE or ISP attribution.
  auto spec = interceptor_spec();
  atlas::Scenario scenario(spec.scenario);
  auto token = core::CancelToken::manual();
  CancellingTransport transport(scenario.transport(), token, 1);

  core::LocalizationPipeline pipeline(scenario.pipeline_config());
  auto verdict = pipeline.run(transport, token);

  EXPECT_FALSE(verdict.stage_skipped(core::PipelineStage::detection));
  EXPECT_TRUE(verdict.detection.any_intercepted(netbase::IpFamily::v4));
  EXPECT_EQ(verdict.location, core::InterceptorLocation::unknown);
  EXPECT_TRUE(verdict.stage_skipped(core::PipelineStage::cpe_check));
  EXPECT_TRUE(verdict.stage_skipped(core::PipelineStage::bogon));
  EXPECT_FALSE(verdict.cpe_check.has_value());
  EXPECT_FALSE(verdict.bogon.has_value());
  EXPECT_TRUE(verdict.partial());
}

TEST(FleetSupervision, MaxFailuresStopsCleanlyWithJournalIntact) {
  auto fleet = small_fleet(10);
  ASSERT_EQ(fleet.size(), 10u);
  std::string journal = testing::TempDir() + "max_failures.journal";

  atlas::MeasurementOptions options;
  options.shards = 1;  // inline: deterministic dispatch order
  options.max_failures = 3;
  options.journal_path = journal;
  options.runner = [](const atlas::ProbeSpec&, const core::CancelToken&) -> atlas::ProbeRecord {
    throw std::runtime_error("every probe fails");
  };
  auto run = atlas::run_fleet(fleet, options);

  EXPECT_TRUE(run.stopped_early());
  EXPECT_EQ(run.records.size(), 3u);
  EXPECT_EQ(run.count_outcome(atlas::ProbeOutcome::failed), 3u);
  EXPECT_EQ(run.not_run, 7u);
  EXPECT_EQ(report::run_census(run).not_run, 7u);

  // The journal survived the early stop and holds exactly the attempts made.
  auto loaded = atlas::load_journal(journal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.header.fleet_size, 10u);
  EXPECT_EQ(loaded.records.size(), 3u);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace dnslocate
