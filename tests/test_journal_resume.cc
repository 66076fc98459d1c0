// The checkpoint journal and resume path: record round trips, kill-and-
// resume byte-identity against an uninterrupted run, and salvage of
// truncated / corrupted / mismatched journals.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "atlas/fleet_json.h"
#include "atlas/journal.h"
#include "atlas/measurement.h"
#include "report/html_report.h"
#include "report/results_io.h"
#include "resolvers/public_resolver.h"

namespace dnslocate {
namespace {

std::vector<atlas::ProbeSpec> study_fleet(std::uint64_t seed = 7) {
  std::string plan = R"({"seed": )" + std::to_string(seed) + R"(, "ipv6_fraction": 0.5,
    "orgs": [
      {"org": "TestNet", "asn": 64601, "country": "US", "probes": 24,
       "cpe_xb6": 2, "isp_allfour": 1, "one_intercepted": 1},
      {"org": "OtherNet", "asn": 64602, "country": "DE", "probes": 12,
       "cpe_custom": "weird-box 9"}
    ]})";
  auto parsed = atlas::fleet_from_json(plan);
  EXPECT_TRUE(parsed.ok());
  return parsed.generate();
}

std::string read_file(const std::string& path) {
  std::ifstream input(path);
  std::stringstream buffer;
  buffer << input.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream output(path, std::ios::trunc);
  output << text;
}

TEST(Journal, RecordRoundTripsThroughJson) {
  auto fleet = study_fleet();
  // An interceptor probe exercises every optional verdict field.
  atlas::ProbeRecord original;
  for (const auto& spec : fleet)
    if (spec.scenario.cpe.intercepts()) {
      original = atlas::run_probe(spec, true);
      break;
    }
  original.elapsed = std::chrono::microseconds(12345);

  auto restored = atlas::journal_record_from_json(atlas::journal_record_to_json(original));
  ASSERT_TRUE(restored.has_value());
  // Strongest check: serialize -> parse -> serialize is byte-stable.
  EXPECT_EQ(atlas::journal_record_to_json(*restored).dump(),
            atlas::journal_record_to_json(original).dump());
  EXPECT_EQ(restored->probe_id, original.probe_id);
  EXPECT_EQ(restored->verdict.location, original.verdict.location);
  EXPECT_EQ(restored->elapsed, original.elapsed);
  EXPECT_EQ(restored->verdict.telemetry.queries, original.verdict.telemetry.queries);

  // Supervision fields round-trip too.
  atlas::ProbeRecord failed;
  failed.probe_id = 77;
  failed.org = {"X (AS1)", 1, "US"};
  failed.outcome = atlas::ProbeOutcome::failed;
  failed.error = "injected crash";
  failed.verdict.skipped_stages = 0b110;
  auto failed_restored =
      atlas::journal_record_from_json(atlas::journal_record_to_json(failed));
  ASSERT_TRUE(failed_restored.has_value());
  EXPECT_EQ(failed_restored->outcome, atlas::ProbeOutcome::failed);
  EXPECT_EQ(failed_restored->error, "injected crash");
  EXPECT_EQ(failed_restored->verdict.skipped_stages, 0b110);
}

TEST(Journal, FastDumpMatchesValueTreeDump) {
  // JournalWriter checksums the bytes of journal_record_dump(); the loader
  // validates against journal_record_to_json(...).dump(). The two serializers
  // must agree byte-for-byte or every record would fail CRC on resume.
  auto fleet = study_fleet();
  for (const auto& spec : {fleet[0], fleet[7], fleet[30]}) {
    auto record = atlas::run_probe(spec, true);
    record.elapsed = std::chrono::microseconds(9876);
    EXPECT_EQ(atlas::journal_record_dump(record),
              atlas::journal_record_to_json(record).dump())
        << "probe " << record.probe_id;
  }

  atlas::ProbeRecord failed;
  failed.probe_id = 99;
  failed.org = {"Y \"quoted\" (AS2)", 2, "BR"};
  failed.outcome = atlas::ProbeOutcome::deadline_exceeded;
  failed.error = "probe exceeded its deadline of 50ms\n\t\"partial\"";
  failed.verdict.skipped_stages = 0b111;
  for (auto kind : resolvers::all_public_resolvers())
    failed.verdict.detection.per_resolver[static_cast<std::size_t>(kind)].kind = kind;
  EXPECT_EQ(atlas::journal_record_dump(failed),
            atlas::journal_record_to_json(failed).dump());

  // A crashed probe's record keeps its default-constructed verdict: every
  // per_resolver entry carries the same display name, which std::map
  // collapses — the fast dump has to match that too.
  atlas::ProbeRecord crashed;
  crashed.probe_id = 100;
  crashed.org = {"Z (AS3)", 3, "JP"};
  crashed.outcome = atlas::ProbeOutcome::failed;
  crashed.error = "injected crash";
  EXPECT_EQ(atlas::journal_record_dump(crashed),
            atlas::journal_record_to_json(crashed).dump());
}

TEST(Journal, KillAndResumeIsByteIdentical) {
  auto fleet = study_fleet();
  auto baseline = atlas::run_fleet(fleet, {});
  std::string baseline_jsonl = report::run_to_jsonl(baseline);
  std::string baseline_html = report::html_report(baseline);

  // "Kill" the run deterministically: three rigged probes throw and
  // max_failures stops the campaign partway, journal intact.
  std::string journal = testing::TempDir() + "kill_resume.journal";
  std::set<std::uint32_t> rigged = {fleet[5].probe_id, fleet[12].probe_id,
                                    fleet[20].probe_id};
  atlas::MeasurementOptions interrupted;
  interrupted.shards = 1;
  interrupted.max_failures = 3;
  interrupted.journal_path = journal;
  interrupted.runner = [&rigged](const atlas::ProbeSpec& spec,
                                 const core::CancelToken& token) {
    if (rigged.count(spec.probe_id) != 0) throw std::runtime_error("injected crash");
    return atlas::run_probe(spec, token, true);
  };
  auto partial = atlas::run_fleet(fleet, interrupted);
  EXPECT_TRUE(partial.stopped_early());
  EXPECT_EQ(partial.count_outcome(atlas::ProbeOutcome::failed), 3u);
  EXPECT_GT(partial.not_run, 0u);

  // Resume with the default (healthy) runner: journaled ok records are
  // reused, the rigged failures get a fresh attempt, the rest run anew.
  atlas::ResumeReport resume_report;
  auto resumed = atlas::resume_fleet(journal, fleet, {}, &resume_report);
  EXPECT_TRUE(resume_report.journal_matched);
  EXPECT_GT(resume_report.reused, 0u);
  EXPECT_EQ(resume_report.rerun_failed, 3u);
  EXPECT_EQ(resume_report.damaged, 0u);
  EXPECT_EQ(resumed.not_run, 0u);
  EXPECT_EQ(resumed.records.size(), fleet.size());

  // Byte-identical to the uninterrupted run, through both export paths.
  EXPECT_EQ(report::run_to_jsonl(resumed), baseline_jsonl);
  EXPECT_EQ(report::html_report(resumed), baseline_html);

  // A resumed run keeps journaling: the journal now covers the whole fleet
  // and can seed another resume that re-runs nothing.
  atlas::ResumeReport second;
  auto again = atlas::resume_fleet(journal, fleet, {}, &second);
  EXPECT_EQ(second.reused, fleet.size());
  EXPECT_EQ(second.rerun_failed, 0u);
  EXPECT_EQ(report::run_to_jsonl(again), baseline_jsonl);
  std::remove(journal.c_str());
}

TEST(Journal, TruncatedFinalLineIsSalvaged) {
  auto fleet = study_fleet();
  std::string journal = testing::TempDir() + "truncated.journal";
  atlas::MeasurementOptions options;
  options.journal_path = journal;
  auto baseline = atlas::run_fleet(fleet, options);

  // A crash mid-append leaves a partial final line (no trailing newline).
  std::string text = read_file(journal);
  ASSERT_FALSE(text.empty());
  text.resize(text.size() - 25);
  write_file(journal, text);

  auto loaded = atlas::load_journal(journal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.damaged, 1u);
  EXPECT_EQ(loaded.records.size(), fleet.size() - 1);
  ASSERT_FALSE(loaded.warnings.empty());

  // Resume salvages everything intact and re-runs only the lost probe.
  atlas::ResumeReport resume_report;
  auto resumed = atlas::resume_fleet(journal, fleet, {}, &resume_report);
  EXPECT_TRUE(resume_report.journal_matched);
  EXPECT_EQ(resume_report.reused, fleet.size() - 1);
  EXPECT_EQ(resume_report.damaged, 1u);
  EXPECT_EQ(report::run_to_jsonl(resumed), report::run_to_jsonl(baseline));
  std::remove(journal.c_str());
}

TEST(Journal, CorruptedChecksumIsDetected) {
  auto fleet = study_fleet();
  std::string journal = testing::TempDir() + "corrupt.journal";
  atlas::MeasurementOptions options;
  options.journal_path = journal;
  auto baseline = atlas::run_fleet(fleet, options);

  // Bit-rot inside the second record's body: its checksum no longer matches.
  std::string text = read_file(journal);
  std::size_t line2 = text.find('\n', text.find('\n') + 1) + 1;
  std::size_t field = text.find("\"probe_id\":", line2);
  ASSERT_NE(field, std::string::npos);
  std::size_t digit = field + std::string("\"probe_id\":").size();
  text[digit] = text[digit] == '9' ? '8' : static_cast<char>(text[digit] + 1);
  write_file(journal, text);

  auto loaded = atlas::load_journal(journal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.damaged, 1u);
  EXPECT_EQ(loaded.records.size(), fleet.size() - 1);
  ASSERT_FALSE(loaded.warnings.empty());
  EXPECT_NE(loaded.warnings[0].find("checksum"), std::string::npos);

  // The damaged record is simply re-measured on resume.
  atlas::ResumeReport resume_report;
  auto resumed = atlas::resume_fleet(journal, fleet, {}, &resume_report);
  EXPECT_EQ(resume_report.reused, fleet.size() - 1);
  EXPECT_EQ(report::run_to_jsonl(resumed), report::run_to_jsonl(baseline));
  std::remove(journal.c_str());
}

TEST(Journal, MismatchedFleetInvalidatesJournal) {
  auto fleet_a = study_fleet(7);
  auto fleet_b = study_fleet(8);
  ASSERT_NE(atlas::fleet_fingerprint(fleet_a), atlas::fleet_fingerprint(fleet_b));

  std::string journal = testing::TempDir() + "mismatch.journal";
  atlas::MeasurementOptions options;
  options.journal_path = journal;
  atlas::run_fleet(fleet_a, options);

  // Resuming a *different* study from this journal must not mix records.
  auto baseline_b = atlas::run_fleet(fleet_b, {});
  atlas::ResumeReport resume_report;
  auto resumed = atlas::resume_fleet(journal, fleet_b, {}, &resume_report);
  EXPECT_FALSE(resume_report.journal_matched);
  EXPECT_EQ(resume_report.reused, 0u);
  ASSERT_FALSE(resume_report.warnings.empty());
  EXPECT_NE(resume_report.warnings[0].find("fingerprint"), std::string::npos);
  EXPECT_EQ(report::run_to_jsonl(resumed), report::run_to_jsonl(baseline_b));
  std::remove(journal.c_str());
}

TEST(Journal, MissingJournalRunsFromScratch) {
  auto fleet = study_fleet();
  std::string journal = testing::TempDir() + "does_not_exist.journal";
  std::remove(journal.c_str());

  atlas::ResumeReport resume_report;
  auto resumed = atlas::resume_fleet(journal, fleet, {}, &resume_report);
  EXPECT_FALSE(resume_report.journal_matched);
  EXPECT_EQ(resume_report.reused, 0u);
  ASSERT_FALSE(resume_report.warnings.empty());
  EXPECT_EQ(resumed.records.size(), fleet.size());

  // The path is adopted for checkpointing, so the run is now resumable.
  auto loaded = atlas::load_journal(journal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.records.size(), fleet.size());
  std::remove(journal.c_str());
}

TEST(ResultsIo, SupervisionFieldsRoundTripThroughJsonl) {
  auto fleet = study_fleet();
  atlas::MeasurementRun run;
  run.records.push_back(atlas::run_probe(fleet[0], true));

  atlas::ProbeRecord failed;
  failed.probe_id = 4242;
  failed.org = {"X (AS1)", 1, "US"};
  failed.outcome = atlas::ProbeOutcome::failed;
  failed.error = "injected crash";
  for (auto kind : resolvers::all_public_resolvers())
    failed.verdict.detection.per_resolver[static_cast<std::size_t>(kind)].kind = kind;
  run.records.push_back(failed);

  atlas::ProbeRecord late = run.records[0];
  late.probe_id = 4243;
  late.outcome = atlas::ProbeOutcome::deadline_exceeded;
  late.error = "probe exceeded its deadline of 50ms";
  late.verdict.skipped_stages = 0b100;
  run.records.push_back(late);

  std::string jsonl = report::run_to_jsonl(run);
  // Clean records carry no supervision noise (old exports stay identical).
  std::size_t first_newline = jsonl.find('\n');
  EXPECT_EQ(jsonl.substr(0, first_newline).find("outcome"), std::string::npos);

  auto loaded = report::run_from_jsonl(jsonl);
  ASSERT_TRUE(loaded.errors.empty());
  ASSERT_EQ(loaded.run.records.size(), 3u);
  EXPECT_EQ(loaded.run.records[0].outcome, atlas::ProbeOutcome::ok);
  EXPECT_EQ(loaded.run.records[1].outcome, atlas::ProbeOutcome::failed);
  EXPECT_EQ(loaded.run.records[1].error, "injected crash");
  EXPECT_EQ(loaded.run.records[2].outcome, atlas::ProbeOutcome::deadline_exceeded);
  EXPECT_EQ(loaded.run.records[2].verdict.skipped_stages, 0b100);
  // The reload reproduces the same bytes.
  EXPECT_EQ(report::run_to_jsonl(loaded.run), jsonl);
}

}  // namespace
}  // namespace dnslocate
