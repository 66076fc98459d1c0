// Shard-count invariance: the fleet executor must produce byte-identical
// per-probe verdicts — and identical downstream aggregates — at any shard
// count, because a shard decides only *where* a probe runs, never *how*.
// Proved over the shared scenario corpus at 1, 2, 4, and 7 shards,
// including a crashed journaled run that resumes under a *different* shard
// count. Also pins the executor's journal-segment lifecycle and that
// repeated multi-shard runs do not grow the heap.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
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

TEST(FleetSharding, CleanShardedRunConsolidatesJournalSegments) {
  auto fleet = corpus_fleet();
  std::string journal = ::testing::TempDir() + "sharded_clean.journal";
  std::remove(journal.c_str());

  MeasurementOptions options;
  options.shards = 4;
  options.journal_path = journal;
  auto run = atlas::run_fleet(fleet, options);
  ASSERT_EQ(run.records.size(), fleet.size());

  // Segments were consolidated into the base journal and removed.
  EXPECT_TRUE(atlas::find_shard_segments(journal).empty());
  auto loaded = atlas::load_journal(journal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.records.size(), fleet.size());
  EXPECT_EQ(loaded.header.fingerprint, atlas::fleet_fingerprint(fleet));

  // A clean early stop consolidates too: the base journal alone holds every
  // record the run returned, and no segment is left behind.
  MeasurementOptions stopped = options;
  stopped.max_failures = 1;
  const std::uint32_t doomed = fleet[fleet.size() / 2].probe_id;
  stopped.runner = [doomed](const ProbeSpec& spec, const core::CancelToken& cancel) {
    if (spec.probe_id == doomed) throw std::runtime_error("injected failure");
    return atlas::run_probe(spec, cancel, /*strip_raw_responses=*/true);
  };
  auto early = atlas::run_fleet(fleet, stopped);
  ASSERT_TRUE(early.stopped_early());
  EXPECT_TRUE(atlas::find_shard_segments(journal).empty());
  auto early_loaded = atlas::load_journal(journal);
  ASSERT_TRUE(early_loaded.ok()) << early_loaded.error;
  EXPECT_EQ(early_loaded.records.size(), early.records.size());

  // So does a cancelled run: nothing dispatched, nothing left on disk.
  MeasurementOptions cancelled = options;
  cancelled.cancel = core::CancelToken::manual();
  cancelled.cancel.cancel();
  auto none = atlas::run_fleet(fleet, cancelled);
  EXPECT_EQ(none.not_run, fleet.size());
  EXPECT_TRUE(atlas::find_shard_segments(journal).empty());
  auto none_loaded = atlas::load_journal(journal);
  ASSERT_TRUE(none_loaded.ok()) << none_loaded.error;
  EXPECT_TRUE(none_loaded.records.empty());
}

TEST(FleetSharding, InterruptedShardedRunResumesUnderDifferentShardCount) {
  // Large enough that shard 0 flushes a journal batch (32 records) to its
  // segment well before it finishes.
  auto fleet = corpus_fleet(12);
  auto baseline = run_with_shards(fleet, 1);

  std::string journal = ::testing::TempDir() + "sharded_interrupt.journal";
  std::remove(journal.c_str());
  for (const std::string& stale : atlas::find_shard_segments(journal))
    std::remove(stale.c_str());

  // First attempt: 4 shards in a child process that dies abruptly (no
  // unwinding, no consolidation) on shard 0's last probe, once shard 0's
  // segment holds a journal batch. A shard consolidates only when it ends,
  // so those records are in the segment and not in the base journal: the
  // crash-shaped state resume must handle.
  const std::string segment0 = atlas::shard_segment_path(journal, 0, 4);
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
        std::_Exit(atlas::load_journal(segment0).records.empty() ? 1 : kCrashStatus);
      return atlas::run_probe(spec, cancel, /*strip_raw_responses=*/true);
    };
    atlas::run_fleet(fleet, crashing);
    std::_Exit(2);  // the crash never happened
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kCrashStatus);
  ASSERT_FALSE(atlas::find_shard_segments(journal).empty());
  std::set<std::uint32_t> in_base;
  for (const auto& record : atlas::load_journal(journal).records) in_base.insert(record.probe_id);
  const auto in_segment0 = atlas::load_journal(segment0).records;
  ASSERT_GE(in_segment0.size(), 32u);
  for (const auto& record : in_segment0) EXPECT_EQ(in_base.count(record.probe_id), 0u);
  std::set<std::uint32_t> journaled = in_base;
  for (const std::string& segment : atlas::find_shard_segments(journal))
    for (const auto& record : atlas::load_journal(segment).records)
      journaled.insert(record.probe_id);

  // Resume under a *different* shard count (7): completed probes are
  // reused from the segments, the rest run, and the merged result matches an
  // uninterrupted 1-shard run at the journal's fidelity contract —
  // byte-identical through the export paths (the journal persists the
  // verdict summary, not the rendered evidence prose, so describe() text of
  // reused records is not part of the contract; location, outcome, and
  // telemetry are).
  MeasurementOptions resumed_options;
  resumed_options.shards = 7;
  atlas::ResumeReport report;
  auto resumed = atlas::resume_fleet(journal, fleet, resumed_options, &report);
  EXPECT_TRUE(report.journal_matched);
  EXPECT_EQ(report.reused, journaled.size());  // the segments were absorbed
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

  // The resumed run completed cleanly, so it consolidated: no segments
  // remain and the base journal alone replays the whole fleet.
  EXPECT_TRUE(atlas::find_shard_segments(journal).empty());
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

TEST(FleetSharding, ShardSegmentPathsNameShardAndCount) {
  EXPECT_EQ(atlas::shard_segment_path("run.journal", 0, 4), "run.journal.shard-0-of-4");
  EXPECT_EQ(atlas::shard_segment_path("/tmp/x/run.journal", 3, 7),
            "/tmp/x/run.journal.shard-3-of-7");
}

}  // namespace
}  // namespace dnslocate
