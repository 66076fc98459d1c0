// Running the localization pipeline over a probe fleet and collecting the
// per-probe records the report layer aggregates into the paper's artefacts.
//
// Fleet runs are *supervised*: each probe executes under a try/catch and a
// wall-clock deadline, so one bad probe records a failure instead of taking
// down the campaign, and an optional append-only journal checkpoints every
// completed probe so an interrupted run resumes without repeating work (see
// atlas/journal.h and docs/ARCHITECTURE.md, "Fleet supervision and
// checkpointing").
#pragma once

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "atlas/fleet.h"
#include "core/cancellation.h"
#include "core/pipeline.h"

namespace dnslocate::atlas {

/// How one supervised probe execution ended.
enum class ProbeOutcome : std::uint8_t {
  ok = 0,                 // the probe ran to completion
  failed = 1,             // an exception escaped the probe (see error)
  deadline_exceeded = 2,  // the probe blew its wall-clock budget
};

std::string_view to_string(ProbeOutcome outcome);
std::optional<ProbeOutcome> probe_outcome_from(std::string_view name);

/// Everything measured (and known) about one probe.
struct ProbeRecord {
  std::uint32_t probe_id = 0;
  OrgInfo org;
  bool tested_v6 = false;
  core::ProbeVerdict verdict;
  GroundTruth truth;
  /// Per-cause drop tallies from the probe's simulator (world-wide, not just
  /// the measurement path) and the fault plan's injection counters.
  simnet::DropCounters drops;
  simnet::FaultPlan::Counters faults;
  /// Supervision: how the execution ended, what it threw (failed only), and
  /// how much wall clock it spent. A deadline_exceeded probe keeps whatever
  /// stages completed — its verdict is partial, never fabricated.
  ProbeOutcome outcome = ProbeOutcome::ok;
  std::string error;
  std::chrono::microseconds elapsed{0};
};

/// Fleet-level results.
struct MeasurementRun {
  std::vector<ProbeRecord> records;
  /// Probes planned but never started because the run stopped early
  /// (MeasurementOptions::max_failures). Resume from the journal to finish.
  std::size_t not_run = 0;

  [[nodiscard]] std::size_t intercepted_count() const;
  [[nodiscard]] std::size_t count_location(core::InterceptorLocation location) const;
  [[nodiscard]] std::size_t count_outcome(ProbeOutcome outcome) const;
  [[nodiscard]] bool stopped_early() const { return not_run > 0; }
};

struct MeasurementOptions {
  /// Drop bulky raw responses after classification, keeping displays and
  /// verdicts (recommended for full-fleet runs).
  bool strip_raw_responses = true;
  /// Alias of `shards`, read only while `shards` is 1: the worker count is
  /// `shards != 1 ? shards : threads`. Kept for callers compiled against the
  /// old name; new code sets `shards` (dnslint's threads-alias rule flags
  /// assignments outside perfbench/).
  unsigned threads = 1;
  /// Worker count: the fleet is partitioned across this many shards by a
  /// stable hash of the probe id (atlas/sharding.h), and per-probe results
  /// are byte-identical at any count. 1 (the default) runs inline on the
  /// calling thread. N > 1 runs each shard on its own thread, with its own
  /// byte arena. At any count every shard appends to the one journal at
  /// `journal_path`, so a run that crashed at one count resumes at another.
  /// 0 = one shard per hardware thread; clamped to the fleet size.
  unsigned shards = 1;
  /// Per-probe wall-clock budget; zero = unlimited. A probe over budget is
  /// cancelled cooperatively (pipeline stage checkpoints, transport waits)
  /// and recorded as deadline_exceeded with a partial verdict.
  std::chrono::milliseconds probe_deadline{0};
  /// Stop dispatching new probes once this many have failed or exceeded
  /// their deadline (zero = never stop). The run returns cleanly with the
  /// completed records, `not_run` set, and the journal intact.
  std::size_t max_failures = 0;
  /// Run-level cancellation: once this token fires, workers stop dispatching
  /// new probes — in-flight probes finish normally and are journaled, the run
  /// returns cleanly with `not_run` covering everything never started, and
  /// the journal is fsync'd. This is the graceful-drain primitive shared by
  /// the daemon's SIGTERM path and the examples' Ctrl-C handler; a drained
  /// run resumes through resume_fleet exactly like a crashed one.
  core::CancelToken cancel;
  /// The one completion observer: called once per probe after supervision
  /// (outcome, elapsed) is applied, in completion order. On resume, records
  /// restored from the journal are replayed through this first (fleet order,
  /// before any fresh probe runs), so a subscriber sees every record of the
  /// run exactly once. Calls never overlap, whatever the shard count (an
  /// internal mutex); keep it cheap — it is on the fleet's critical path.
  std::function<void(const ProbeRecord&)> on_record;
  /// Append-only checkpoint journal (one checksummed JSONL record per
  /// completed probe); empty = no journal. See atlas/journal.h.
  std::string journal_path;
  /// fsync the journal at most this often (and at close). Every append
  /// still reaches the OS immediately; this only bounds power-failure loss.
  std::chrono::milliseconds journal_sync_interval = std::chrono::seconds(1);
  /// Test hook: replaces run_probe as the probe executor. The supervisor
  /// still applies the try/catch, deadline token, and journaling around it.
  std::function<ProbeRecord(const ProbeSpec&, const core::CancelToken&)> runner;
};

/// Run every probe through the pipeline. Each probe lives in its own
/// deterministic simulator; results are reproducible from the fleet seed.
/// Exceptions and deadline overruns are captured per probe (ProbeRecord::
/// outcome) — they never abort the fleet.
MeasurementRun run_fleet(const std::vector<ProbeSpec>& fleet,
                         const MeasurementOptions& options = {});

/// What resume_fleet found in (and did with) the journal.
struct ResumeReport {
  /// The journal existed and its header parsed and matched the fleet.
  bool journal_matched = false;
  std::size_t reused = 0;        // ok records restored without re-running
  std::size_t rerun_failed = 0;  // journaled failed/deadline probes re-executed
  std::size_t damaged = 0;       // journal lines dropped (truncation, checksum)
  std::vector<std::string> warnings;
};

/// Resume an interrupted journaled run: join the journal to `fleet`
/// (join_journal: the header's fingerprint covers seed, scale, and per-probe
/// configuration), reuse every probe whose last intact record is `ok`, and
/// run only what is missing — failed and deadline-exceeded probes get a
/// fresh attempt. The result is byte-identical (via report::run_to_jsonl /
/// report::html_report) to an uninterrupted run of the same fleet. Damaged
/// journal lines are salvaged around and a mismatched header falls back to
/// a full re-run; both are reported in `report`. The journal at
/// `journal_path` is rewritten (header + reused records) and then extended
/// as the remaining probes complete, so a resumed run can itself be resumed.
MeasurementRun resume_fleet(const std::string& journal_path,
                            const std::vector<ProbeSpec>& fleet,
                            const MeasurementOptions& options = {},
                            ResumeReport* report = nullptr);

/// Run a single probe (used by tests and the example programs).
ProbeRecord run_probe(const ProbeSpec& spec, bool strip_raw_responses = false);

/// Run a single probe under a cancellation token: the token reaches the
/// pipeline's stage checkpoints and the transport waits.
ProbeRecord run_probe(const ProbeSpec& spec, const core::CancelToken& cancel,
                      bool strip_raw_responses = false);

}  // namespace dnslocate::atlas
