// Shard-count invariance: the fleet executor must produce byte-identical
// per-probe verdicts — and identical downstream aggregates — at any shard
// count, because a shard decides only *where* a probe runs, never *how*.
// Proved over the shared scenario corpus at 1, 2, 4, and 7 shards,
// including a crashed journaled run that resumes under a *different* shard
// count. Also pins that a sharded run keeps every record in its one journal
// and that repeated multi-shard runs do not grow the heap.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "atlas/journal.h"
#include "atlas/measurement.h"
#include "atlas/sharding.h"
#include "journal_files.h"
#include "report/aggregate.h"
#include "report/results_io.h"
#include "scenario_corpus.h"

namespace dnslocate {
namespace {

using atlas::MeasurementOptions;
using atlas::MeasurementRun;
using atlas::ProbeSpec;
using testing_corpus::corpus;
using testing_corpus::signature;

/// `copies` probes per corpus scenario, with ids spread out so the stable
/// hash distributes them non-trivially across shard counts.
std::vector<ProbeSpec> corpus_fleet(int copies = 1) {
  std::vector<ProbeSpec> fleet;
  std::uint32_t id = 1000;
  for (int copy = 0; copy < copies; ++copy) {
    for (const auto& c : corpus()) {
      ProbeSpec spec;
      spec.probe_id = id;
      id += 7;  // non-contiguous ids: shard_of must not depend on density
      spec.org.org = c.name;
      spec.org.asn = 64500 + (id % 17);
      spec.org.country = "--";
      spec.scenario = c.config;
      fleet.push_back(std::move(spec));
    }
  }
  return fleet;
}

/// probe_id -> full verdict signature, the byte-level equality gate.
std::map<std::uint32_t, std::string> signatures_of(const MeasurementRun& run) {
  std::map<std::uint32_t, std::string> out;
  for (const auto& record : run.records) out[record.probe_id] = signature(record.verdict);
  return out;
}

MeasurementRun run_with_shards(const std::vector<ProbeSpec>& fleet, unsigned shards) {
  MeasurementOptions options;
  options.shards = shards;
  return atlas::run_fleet(fleet, options);
}

TEST(FleetSharding, ShardAssignmentIsStableAndComplete) {
  auto fleet = corpus_fleet();
  for (unsigned shards : {1u, 2u, 4u, 7u}) {
    auto parts = atlas::partition_fleet(fleet, shards);
    ASSERT_EQ(parts.size(), shards);
    std::set<std::size_t> seen;
    for (unsigned k = 0; k < shards; ++k) {
      std::size_t previous = 0;
      bool first = true;
      for (std::size_t i : parts[k]) {
        EXPECT_TRUE(seen.insert(i).second) << "index " << i << " in two shards";
        EXPECT_EQ(atlas::shard_of(fleet[i].probe_id, shards), k);
        // Fleet order is preserved within a shard.
        if (!first) {
          EXPECT_GT(i, previous);
        }
        previous = i;
        first = false;
      }
    }
    EXPECT_EQ(seen.size(), fleet.size());
  }
  // Assignment is a function of the probe id alone: repeated calls agree.
  for (const auto& spec : fleet)
    EXPECT_EQ(atlas::shard_of(spec.probe_id, 4), atlas::shard_of(spec.probe_id, 4));
}

TEST(FleetSharding, VerdictsAreByteIdenticalAcrossShardCounts) {
  auto fleet = corpus_fleet();
  auto baseline = run_with_shards(fleet, 1);
  ASSERT_EQ(baseline.records.size(), fleet.size());
  auto expected = signatures_of(baseline);

  for (unsigned shards : {2u, 4u, 7u}) {
    auto run = run_with_shards(fleet, shards);
    ASSERT_EQ(run.records.size(), fleet.size()) << shards << " shards";
    EXPECT_EQ(signatures_of(run), expected) << shards << " shards";
    // Record order is the fleet order regardless of which shard ran what.
    for (std::size_t i = 0; i < fleet.size(); ++i)
      EXPECT_EQ(run.records[i].probe_id, fleet[i].probe_id);
  }
}

TEST(FleetSharding, AccuracyMatrixIsIdenticalAcrossShardCounts) {
  auto fleet = corpus_fleet();
  auto baseline = report::accuracy_matrix(run_with_shards(fleet, 1));
  for (unsigned shards : {2u, 4u, 7u}) {
    auto matrix = report::accuracy_matrix(run_with_shards(fleet, shards));
    for (int expected = 0; expected < 4; ++expected)
      for (int measured = 0; measured < 4; ++measured)
        EXPECT_EQ(matrix.cells[expected][measured], baseline.cells[expected][measured])
            << shards << " shards, cell [" << expected << "][" << measured << "]";
    EXPECT_EQ(matrix.total(), baseline.total());
    EXPECT_EQ(matrix.correct(), baseline.correct());
  }
}

/// The record bytes of every line of the journal file after its header,
/// sorted: each line is {"crc":"…","record":<journal_record_dump>}.
std::vector<std::string> journaled_dumps(const std::string& journal) {
  std::ifstream file(journal, std::ios::binary);
  std::vector<std::string> out;
  std::string line;
  std::getline(file, line);  // header
  const std::string key = "\",\"record\":";
  while (std::getline(file, line)) {
    const std::size_t at = line.find(key);
    out.push_back(at == std::string::npos ? line
                                          : line.substr(at + key.size(),
                                                        line.size() - at - key.size() - 1));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// journal_record_dump of each record, sorted: what journaled_dumps must read
/// back when the journal holds exactly these records.
std::vector<std::string> dumps_of(const std::vector<atlas::ProbeRecord>& records) {
  std::vector<std::string> out;
  for (const auto& record : records) out.push_back(atlas::journal_record_dump(record));
  std::sort(out.begin(), out.end());
  return out;
}

/// Run `fleet` journaled into `journal`, and note in `*saw_shard_file` if a
/// file named "<journal>.shard-*" exists beside it after any probe.
MeasurementRun run_watching_journal(const std::vector<ProbeSpec>& fleet,
                                    MeasurementOptions options, const std::string& journal,
                                    bool* saw_shard_file) {
  options.journal_path = journal;
  options.on_record = [&journal, saw_shard_file](const atlas::ProbeRecord&) {
    if (!testutil::shard_files_beside(journal).empty()) *saw_shard_file = true;
  };
  auto run = atlas::run_fleet(fleet, options);
  if (!testutil::shard_files_beside(journal).empty()) *saw_shard_file = true;
  return run;
}

TEST(FleetSharding, ShardedRunKeepsEveryRecordInTheOneJournal) {
  auto fleet = corpus_fleet();
  std::string journal = ::testing::TempDir() + "sharded_clean.journal";
  std::remove(journal.c_str());

  // Complete: the journal holds exactly the records the run returned, and
  // the shards wrote nothing but the journal.
  MeasurementOptions options;
  options.shards = 4;
  bool saw_shard_file = false;
  auto run = run_watching_journal(fleet, options, journal, &saw_shard_file);
  ASSERT_EQ(run.records.size(), fleet.size());
  EXPECT_FALSE(saw_shard_file);
  auto loaded = atlas::load_journal(journal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.records.size(), run.records.size());
  EXPECT_EQ(journaled_dumps(journal), dumps_of(run.records));
  EXPECT_EQ(loaded.header.fingerprint, atlas::fleet_fingerprint(fleet));

  // A clean early stop: the journal holds every record the run returned,
  // the injected failure included.
  MeasurementOptions stopped = options;
  stopped.max_failures = 1;
  const std::uint32_t doomed = fleet[fleet.size() / 2].probe_id;
  stopped.runner = [doomed](const ProbeSpec& spec, const core::CancelToken& cancel) {
    if (spec.probe_id == doomed) throw std::runtime_error("injected failure");
    return atlas::run_probe(spec, cancel, /*strip_raw_responses=*/true);
  };
  auto early = run_watching_journal(fleet, stopped, journal, &saw_shard_file);
  ASSERT_TRUE(early.stopped_early());
  EXPECT_FALSE(saw_shard_file);
  auto early_loaded = atlas::load_journal(journal);
  ASSERT_TRUE(early_loaded.ok()) << early_loaded.error;
  EXPECT_EQ(early_loaded.records.size(), early.records.size());
  EXPECT_EQ(journaled_dumps(journal), dumps_of(early.records));

  // A cancelled run: nothing dispatched, a journal of just its header.
  MeasurementOptions cancelled = options;
  cancelled.cancel = core::CancelToken::manual();
  cancelled.cancel.cancel();
  auto none = run_watching_journal(fleet, cancelled, journal, &saw_shard_file);
  EXPECT_EQ(none.not_run, fleet.size());
  EXPECT_FALSE(saw_shard_file);
  auto none_loaded = atlas::load_journal(journal);
  ASSERT_TRUE(none_loaded.ok()) << none_loaded.error;
  EXPECT_TRUE(none_loaded.records.empty());
}

TEST(FleetSharding, InterruptedShardedRunResumesUnderDifferentShardCount) {
  // Large enough that a journal batch (32 records) reaches the journal well
  // before shard 0 finishes.
  auto fleet = corpus_fleet(12);
  auto baseline = run_with_shards(fleet, 1);

  std::string journal = ::testing::TempDir() + "sharded_interrupt.journal";
  std::remove(journal.c_str());

  // First attempt: 4 shards in a child process that dies abruptly (no
  // unwinding, no final sync) on shard 0's last probe, once the journal
  // holds a batch. Every shard appends to the one journal, so what it holds
  // at that moment is exactly what the crash left behind.
  const auto parts = atlas::partition_fleet(fleet, 4);
  ASSERT_GT(parts[0].size(), 32u);
  const std::uint32_t crash_at = fleet[parts[0].back()].probe_id;
  constexpr int kCrashStatus = 42;
  std::fflush(nullptr);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    MeasurementOptions crashing;
    crashing.shards = 4;
    crashing.journal_path = journal;
    crashing.runner = [&](const ProbeSpec& spec, const core::CancelToken& cancel) {
      if (spec.probe_id == crash_at)
        std::_Exit(atlas::load_journal(journal).records.size() >= 32 ? kCrashStatus : 1);
      return atlas::run_probe(spec, cancel, /*strip_raw_responses=*/true);
    };
    atlas::run_fleet(fleet, crashing);
    std::_Exit(2);  // the crash never happened
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kCrashStatus);
  EXPECT_TRUE(testutil::shard_files_beside(journal).empty());
  std::set<std::uint32_t> journaled;
  for (const auto& record : atlas::load_journal(journal).records)
    journaled.insert(record.probe_id);
  ASSERT_GE(journaled.size(), 32u);
  EXPECT_EQ(journaled.count(crash_at), 0u);

  // Resume under a *different* shard count (7): the journaled probes are
  // reused, the rest run, and the merged result matches an uninterrupted
  // 1-shard run at the journal's fidelity contract — byte-identical through
  // the export paths (the journal persists the verdict summary, not the
  // rendered evidence prose, so describe() text of reused records is not
  // part of the contract; location, outcome, and telemetry are).
  MeasurementOptions resumed_options;
  resumed_options.shards = 7;
  atlas::ResumeReport report;
  auto resumed = atlas::resume_fleet(journal, fleet, resumed_options, &report);
  EXPECT_TRUE(report.journal_matched);
  EXPECT_EQ(report.reused, journaled.size());  // exactly what the crash left
  EXPECT_LT(report.reused, fleet.size());  // the interruption left real work
  ASSERT_EQ(resumed.records.size(), fleet.size());
  EXPECT_EQ(report::run_to_jsonl(resumed), report::run_to_jsonl(baseline));
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto& got = resumed.records[i];
    const auto& want = baseline.records[i];
    EXPECT_EQ(got.probe_id, want.probe_id);
    EXPECT_EQ(got.outcome, want.outcome) << "probe " << got.probe_id;
    EXPECT_EQ(got.verdict.location, want.verdict.location) << "probe " << got.probe_id;
    EXPECT_EQ(got.verdict.skipped_stages, want.verdict.skipped_stages)
        << "probe " << got.probe_id;
    EXPECT_EQ(got.verdict.telemetry.queries, want.verdict.telemetry.queries)
        << "probe " << got.probe_id;
    EXPECT_EQ(got.verdict.telemetry.answered, want.verdict.telemetry.answered)
        << "probe " << got.probe_id;
  }

  // The resumed run completed cleanly: the journal alone replays the whole
  // fleet, and still nothing sits beside it.
  EXPECT_TRUE(testutil::shard_files_beside(journal).empty());
  auto loaded = atlas::load_journal(journal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.records.size(), fleet.size());
}

/// Bytes the allocator has handed out and not taken back (all arenas).
std::size_t heap_in_use() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  return mallinfo2().uordblks;
#else
  return 0;
#endif
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

TEST(FleetArena, RepeatedFourWorkerRunsDoNotGrowTheHeap) {
  // A worker that releases packet buffers parks them in its thread's arena.
  // A thread without its own arena uses the fallback, which is leaked at
  // thread exit together with its parked blocks — so an executor on such
  // threads grows a long-lived daemon with every run. Each spawned shard
  // owns an arena that is freed with it. Checked through both spellings of
  // the worker count: `shards`, and the `threads` alias perfbench uses.
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators do not report mallinfo2";
  if (heap_in_use() == 0) GTEST_SKIP() << "mallinfo2 needs glibc 2.33 or later";
  auto fleet = corpus_fleet();
  for (bool alias : {false, true}) {
    MeasurementOptions options;
    if (alias) {
      // dnslint: allow(threads-alias): pins that the alias perfbench uses reaches the shards
      options.threads = 4;
    } else {
      options.shards = 4;
    }
    // Warm-up: first runs fill allocator caches and lazily built statics.
    for (int i = 0; i < 5; ++i) atlas::run_fleet(fleet, options);
    const std::size_t before = heap_in_use();
    constexpr int kRuns = 40;
    for (int i = 0; i < kRuns; ++i) atlas::run_fleet(fleet, options);
    const std::size_t after = heap_in_use();
    // A leaked fallback arena costs kilobytes per exited thread, so 160
    // leaking threads would show hundreds of kilobytes.
    EXPECT_LT(after, before + 16 * 1024)
        << (alias ? "threads" : "shards") << " = 4: heap grew by " << (after - before)
        << " bytes over " << kRuns << " runs";
  }
}

}  // namespace
}  // namespace dnslocate
