// The checkpoint journal and resume path: record round trips, kill-and-
// resume byte-identity against an uninterrupted run, and salvage of
// truncated / corrupted / mismatched journals.
//
// tests/golden/record_codec.txt pins the record codec: (a) the bytes
// journal_record_dump emits for a set of study, supervision and faulted-
// fleet records, and (b) what parse_journal keeps, drops and warns about
// over each fuzz/corpus/journal seed's bit-flip neighbourhood
// (fuzz/bitflip.h).
// Regeneration (deliberate journal format changes only):
//   DNSLOCATE_UPDATE_GOLDEN=1 ./build/tests/test_journal_resume
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "atlas/fleet_json.h"
#include "atlas/journal.h"
#include "atlas/measurement.h"
#include "bitflip.h"
#include "jsonio/json.h"
#include "report/aggregate.h"
#include "report/html_report.h"
#include "report/results_io.h"

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

/// A small fleet under 5% burst loss on the access link with four-attempt
/// retries: every record carries non-zero telemetry, drop and fault counters.
const atlas::MeasurementRun& faulted_fleet_run() {
  static const atlas::MeasurementRun run = [] {
    atlas::FleetConfig config;
    config.scale = 0.05;
    config.faults = simnet::FaultProfile::burst_loss(0.05);
    config.fault_classes = {"access"};
    config.retry = core::RetryPolicy::standard(4);
    return atlas::run_fleet(atlas::generate_fleet(config));
  }();
  return run;
}

/// A deadline-exceeded record with quotes and control characters in its
/// strings.
atlas::ProbeRecord quoted_deadline_record() {
  atlas::ProbeRecord failed;
  failed.probe_id = 99;
  failed.org = {"Y \"quoted\" (AS2)", 2, "BR"};
  failed.outcome = atlas::ProbeOutcome::deadline_exceeded;
  failed.error = "probe exceeded its deadline of 50ms\n\t\"partial\"";
  failed.verdict.skipped_stages = 0b111;
  return failed;
}

/// A crashed probe's record: a default-constructed verdict, whose detection
/// report still names all four resolvers.
atlas::ProbeRecord crashed_record() {
  atlas::ProbeRecord crashed;
  crashed.probe_id = 100;
  crashed.org = {"Z (AS3)", 3, "JP"};
  crashed.outcome = atlas::ProbeOutcome::failed;
  crashed.error = "injected crash";
  return crashed;
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (char c : text) h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
  return h;
}

/// One golden line per journal seed: over the seed and its first 256
/// bit-flip mutants, how many parse with a usable header, how many records
/// parse_journal keeps and how many lines it drops, and FNV-1a digests of
/// its warnings (plus any fatal error) and of the kept records' dumps.
std::string journal_outcome_line(const std::filesystem::path& seed) {
  constexpr std::uint64_t kMutants = 256;
  std::string text = read_file(seed.string());
  std::vector<std::uint8_t> bytes(text.begin(), text.end());
  std::size_t inputs = 0, usable = 0, kept = 0, damaged = 0;
  std::uint64_t warnings = 0xcbf29ce484222325ull, records = 0xcbf29ce484222325ull;
  for (std::uint64_t round = 0; round <= kMutants && (round == 0 || !bytes.empty()); ++round) {
    std::vector<std::uint8_t> input =
        round == 0 ? bytes : fuzzing::bitflip_mutant(bytes, round - 1);
    ++inputs;
    auto result = atlas::parse_journal(std::string(input.begin(), input.end()));
    if (result.ok()) ++usable;
    kept += result.records.size();
    damaged += result.damaged;
    for (const auto& warning : result.warnings) warnings = fnv1a(warning + "\n", warnings);
    warnings = fnv1a(result.error + "\n", warnings);
    for (const auto& record : result.records)
      records = fnv1a(atlas::journal_record_dump(record) + "\n", records);
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "%s inputs=%zu usable=%zu kept=%zu damaged=%zu warnings=%016llx "
                "records=%016llx\n",
                seed.filename().string().c_str(), inputs, usable, kept, damaged,
                static_cast<unsigned long long>(warnings),
                static_cast<unsigned long long>(records));
  return line;
}

TEST(Journal, RecordCodecMatchesRecordedGolden) {
  std::string live = "# (a) journal_record_dump bytes, elapsed pinned\n";
  auto fleet = study_fleet();
  for (const auto& spec : {fleet[0], fleet[7], fleet[30]}) {
    auto record = atlas::run_probe(spec, true);
    record.elapsed = std::chrono::microseconds(9876);
    live += atlas::journal_record_dump(record) + "\n";
  }
  live += atlas::journal_record_dump(quoted_deadline_record()) + "\n";
  live += atlas::journal_record_dump(crashed_record()) + "\n";
  for (auto record : faulted_fleet_run().records) {
    record.elapsed = std::chrono::microseconds(9876);
    live += atlas::journal_record_dump(record) + "\n";
  }

  live += "# (b) parse_journal over each seed and its bit-flip neighbourhood\n";
  std::vector<std::filesystem::path> seeds;
  for (const auto& entry : std::filesystem::directory_iterator(DNSLOCATE_JOURNAL_CORPUS))
    if (entry.is_regular_file()) seeds.push_back(entry.path());
  std::sort(seeds.begin(), seeds.end());
  ASSERT_FALSE(seeds.empty()) << "no corpus at " DNSLOCATE_JOURNAL_CORPUS;
  for (const auto& seed : seeds) live += journal_outcome_line(seed);

  if (std::getenv("DNSLOCATE_UPDATE_GOLDEN") != nullptr) {
    write_file(DNSLOCATE_RECORD_CODEC_GOLDEN, live);
    GTEST_SKIP() << "golden regenerated at " << DNSLOCATE_RECORD_CODEC_GOLDEN;
  }
  const std::string golden = read_file(DNSLOCATE_RECORD_CODEC_GOLDEN);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << DNSLOCATE_RECORD_CODEC_GOLDEN
                               << " — regenerate with DNSLOCATE_UPDATE_GOLDEN=1";
  EXPECT_EQ(live, golden) << "the record codec drifted; if the change is deliberate, "
                             "regenerate with DNSLOCATE_UPDATE_GOLDEN=1";
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

  auto dump_then_parse = [](const atlas::ProbeRecord& record) {
    auto value = jsonio::parse(atlas::journal_record_dump(record));
    EXPECT_TRUE(value.has_value());
    return value ? atlas::journal_record_from_json(*value) : std::nullopt;
  };
  auto restored = dump_then_parse(original);
  ASSERT_TRUE(restored.has_value());
  // Strongest check: serialize -> parse -> serialize is byte-stable.
  EXPECT_EQ(atlas::journal_record_dump(*restored), atlas::journal_record_dump(original));
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
  auto failed_restored = dump_then_parse(failed);
  ASSERT_TRUE(failed_restored.has_value());
  EXPECT_EQ(failed_restored->outcome, atlas::ProbeOutcome::failed);
  EXPECT_EQ(failed_restored->error, "injected crash");
  EXPECT_EQ(failed_restored->verdict.skipped_stages, 0b110);
}

TEST(Journal, FailedRecordDumpIsAFixpoint) {
  // A failed probe keeps a default-constructed verdict; dumping its reload
  // must give the bytes that were journaled.
  atlas::ProbeRecord failed;
  failed.outcome = atlas::ProbeOutcome::failed;
  const std::string dump = atlas::journal_record_dump(failed);
  auto value = jsonio::parse(dump);
  ASSERT_TRUE(value.has_value());
  auto restored = atlas::journal_record_from_json(*value);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(atlas::journal_record_dump(*restored), dump);
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
  run.records.push_back(failed);

  atlas::ProbeRecord late = run.records[0];
  late.probe_id = 4243;
  late.outcome = atlas::ProbeOutcome::deadline_exceeded;
  late.error = "probe exceeded its deadline of 50ms";
  late.verdict.skipped_stages = 0b100;
  run.records.push_back(late);

  std::string jsonl = report::run_to_jsonl(run);
  // Every record names its outcome, clean ones included.
  std::size_t first_newline = jsonl.find('\n');
  EXPECT_NE(jsonl.substr(0, first_newline).find("\"outcome\":\"ok\""), std::string::npos);

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

TEST(ResultsIo, FaultedFleetExportReloadsEveryCensus) {
  // The dataset export carries telemetry, drop and fault counters, so the
  // loss-resilience and run-health censuses reload exactly.
  const atlas::MeasurementRun& run = faulted_fleet_run();
  auto loaded = report::run_from_jsonl(report::run_to_jsonl(run));
  ASSERT_TRUE(loaded.ok()) << loaded.errors[0];
  ASSERT_EQ(loaded.run.records.size(), run.records.size());

  auto retries = report::retry_census(run);
  ASSERT_GT(retries.totals.retries, 0u);
  EXPECT_EQ(report::render_retry_census(report::retry_census(loaded.run)).render(),
            report::render_retry_census(retries).render());

  auto before = report::run_census(run);
  auto after = report::run_census(loaded.run);
  ASSERT_GT(before.faults.burst_drops, 0u);
  EXPECT_EQ(report::render_run_census(after).render(),
            report::render_run_census(before).render());
  EXPECT_EQ(after.ok, before.ok);
  EXPECT_EQ(after.failed, before.failed);
  EXPECT_EQ(after.deadline_exceeded, before.deadline_exceeded);
  EXPECT_EQ(after.partial_verdicts, before.partial_verdicts);
  EXPECT_EQ(after.telemetry.queries, before.telemetry.queries);
  EXPECT_EQ(after.telemetry.attempts, before.telemetry.attempts);
  EXPECT_EQ(after.telemetry.retries, before.telemetry.retries);
  EXPECT_EQ(after.telemetry.timeouts, before.telemetry.timeouts);
  EXPECT_EQ(after.telemetry.answered, before.telemetry.answered);
  EXPECT_EQ(after.drops.total(), before.drops.total());
  EXPECT_EQ(after.drops.fault_burst, before.drops.fault_burst);
  EXPECT_EQ(after.drops.fault_random, before.drops.fault_random);
  EXPECT_EQ(after.faults.burst_drops, before.faults.burst_drops);
  EXPECT_EQ(after.faults.random_drops, before.faults.random_drops);
  EXPECT_EQ(after.faults.duplicated, before.faults.duplicated);
  EXPECT_EQ(after.faults.jittered, before.faults.jittered);
}

TEST(ResultsIo, UnknownOrMissingOutcomeIsAnError) {
  const std::string good = R"({"location":"cpe","outcome":"ok","probe_id":1})";
  const std::string bogus = R"({"location":"cpe","outcome":"bogus","probe_id":2})";
  const std::string missing = R"({"location":"cpe","probe_id":3})";
  auto loaded = report::run_from_jsonl(good + "\n" + bogus + "\n" + missing + "\n");
  ASSERT_EQ(loaded.errors.size(), 2u);
  EXPECT_EQ(loaded.errors[0].rfind("line 2:", 0), 0u) << loaded.errors[0];
  EXPECT_EQ(loaded.errors[1].rfind("line 3:", 0), 0u) << loaded.errors[1];
  ASSERT_EQ(loaded.run.records.size(), 1u);
  EXPECT_EQ(loaded.run.records[0].probe_id, 1u);
}

TEST(ResultsIo, CpeInterceptorFlagSurvivesExport) {
  // A contested verdict whose CPE check still names the CPE as an
  // interceptor: the flag is evidence of its own, not a function of the
  // location.
  atlas::ProbeRecord record;
  record.probe_id = 5;
  record.org = {"C (AS5)", 5, "FR"};
  record.verdict.location = core::InterceptorLocation::contested;
  core::CpeCheckReport check;
  check.cpe.answered = true;
  check.cpe.txt = "dnsmasq-2.80";
  check.cpe.display = *check.cpe.txt;
  check.cpe_is_interceptor = true;
  record.verdict.cpe_check = check;
  atlas::MeasurementRun run;
  run.records.push_back(record);

  auto loaded = report::run_from_jsonl(report::run_to_jsonl(run));
  ASSERT_TRUE(loaded.ok()) << loaded.errors[0];
  ASSERT_EQ(loaded.run.records.size(), 1u);
  const auto& restored = loaded.run.records[0];
  EXPECT_EQ(restored.verdict.location, core::InterceptorLocation::contested);
  ASSERT_TRUE(restored.verdict.cpe_check.has_value());
  EXPECT_TRUE(restored.verdict.cpe_check->cpe_is_interceptor);
}

TEST(ResultsIo, ExportLineIsTheJournalRecordWithoutElapsed) {
  std::vector<atlas::ProbeRecord> records = faulted_fleet_run().records;
  records.push_back(quoted_deadline_record());
  records.push_back(crashed_record());
  records.back().elapsed = std::chrono::microseconds(321);
  for (const auto& record : records) {
    std::string expected = atlas::journal_record_dump(record);
    const std::string elapsed = "\"elapsed_us\":" + std::to_string(record.elapsed.count()) + ",";
    std::size_t at = expected.find(elapsed);
    ASSERT_NE(at, std::string::npos) << "probe " << record.probe_id;
    expected.erase(at, elapsed.size());
    atlas::MeasurementRun one;
    one.records.push_back(record);
    EXPECT_EQ(report::run_to_jsonl(one), expected + "\n") << "probe " << record.probe_id;
  }
}

}  // namespace
}  // namespace dnslocate
