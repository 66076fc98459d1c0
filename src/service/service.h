// The resident measurement service's runtime kernel: multi-tenant fleet
// scheduling on a bounded worker pool, durable run state, graceful drain,
// and crash recovery.
//
// Each submitted fleet becomes a Run with a durable footprint in the state
// directory:
//
//   <id>.manifest.json   written (and fsync'd) at admission: tenant, pacing,
//                        and the fleet plan — everything needed to rebuild
//                        the run after a crash
//   <id>.journal         the supervised runner's checkpoint journal
//                        (atlas/journal.h): one checksummed line per
//                        completed probe
//   <id>.done            written (and fsync'd) only when the run reaches a
//                        terminal state, carrying the final census
//
// A manifest without a .done marker is, by construction, a run the previous
// process never finished — startup recovery re-queues it through
// atlas::resume_fleet, which replays the journal's intact records and runs
// only what is missing, and its status reports `recovered: true`. Because
// the export line (report::probe_to_json) is wall-clock-free, the recovered
// run's records are byte-identical to an uninterrupted run of the same plan
// (proved in tests/test_service_restart.cc).
//
// A run holds each record once, as its export line: the verdict stream
// reads the lines in publication order and /records in fleet order. Spilled
// lines (ServiceConfig::retain_terminal_runs) reload through
// atlas::join_journal, the join resume_fleet uses.
//
// Graceful drain (the daemon's SIGTERM path) fires every active run's
// CancelToken: in-flight probes finish and are journaled, journals are
// fsync'd, and no .done marker is written — so the next start resumes
// exactly where the drain stopped. A user cancel (POST .../cancel) uses the
// same token but *does* finalize the run (state `cancelled`), because the
// operator asked for it to end, not for the process to move.
//
// This layer knows nothing about HTTP: service/api.h adapts it to the wire.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "atlas/measurement.h"
#include "jsonio/json.h"
#include "netbase/thread_annotations.h"

namespace dnslocate::service {

struct ServiceConfig {
  /// Durable run state (manifests, journals, done markers). Created if
  /// missing; scanned for unfinished runs at startup.
  std::string state_dir;
  /// Worker pool size: how many fleet runs execute concurrently. Queued
  /// runs wait for a worker in submission order.
  unsigned workers = 2;
  /// Per-tenant admission cap on *active* (queued + running) runs; a
  /// submission over the cap is answered 429, never queued.
  std::size_t tenant_cap = 2;
  /// Largest admissible fleet (generated probes); larger plans get 413.
  std::size_t max_probes = 20000;
  /// Shards per fleet run (MeasurementOptions::shards). The pool bounds
  /// cross-run concurrency; this bounds concurrency within one run. Every
  /// shard appends to the run's one journal, so after any stop, crash
  /// included, that journal holds every record the run checkpointed.
  unsigned run_threads = 1;
  /// Per-probe wall-clock budget forwarded to the supervisor (0 = none).
  std::chrono::milliseconds probe_deadline{0};
  /// How many terminal runs keep their record lines resident in memory.
  /// Older terminal runs are spilled (their journal and done marker stay
  /// durable on disk) and reloaded on demand, so a long-lived daemon's
  /// memory stays bounded regardless of how many runs it has served.
  std::size_t retain_terminal_runs = 16;
};

/// Lifecycle of one submitted run.
enum class RunState : std::uint8_t {
  queued = 0,     // admitted, waiting for a worker
  running = 1,    // a worker is executing the fleet
  completed = 2,  // ran to the end of the plan
  cancelled = 3,  // drained by POST .../cancel (partial records kept)
  failed = 4,     // the runner itself threw (plan regeneration, I/O)
};

std::string_view to_string(RunState state);

/// Point-in-time public view of a run (what GET /v1/fleets/{id} reports).
struct RunStatus {
  std::string id;
  std::string tenant;
  RunState state = RunState::queued;
  bool recovered = false;       // resumed from a prior process's journal
  std::size_t probes_total = 0;
  std::size_t probes_done = 0;  // records published so far (== verdict seq)
  std::size_t not_run = 0;      // planned but never started (drain/cancel)
  std::string error;            // failed runs: what the runner threw
  /// Final run census (report::run_census) once terminal; null before.
  jsonio::Value census;
};

/// Outcome of MeasurementService::submit — an HTTP-shaped verdict the API
/// layer can serialize directly.
struct SubmitResult {
  int status = 202;      // 202 accepted; else 400/413/429/503
  std::string id;        // set when accepted
  std::string error;     // human-readable reason when rejected
  /// Parse failures: {offset, line, column, context} from jsonio so the
  /// 400 body points at the offending byte (satellite #1).
  jsonio::Value detail;
};

/// One page of the verdict stream: NDJSON lines [from_seq, next_seq).
struct VerdictPage {
  std::vector<std::string> lines;  // one JSON object per line, no newline
  std::size_t next_seq = 0;        // pass as from_seq to continue
  bool finished = false;           // terminal: no further lines will appear
};

class MeasurementService {
 public:
  /// Creates the state directory if needed, scans it for unfinished runs
  /// (manifest without .done), and re-queues each for resumption before any
  /// new submission is accepted. Throws std::runtime_error when the state
  /// directory cannot be created.
  explicit MeasurementService(ServiceConfig config);
  ~MeasurementService();

  MeasurementService(const MeasurementService&) = delete;
  MeasurementService& operator=(const MeasurementService&) = delete;

  /// Admit a fleet submission (the POST /v1/fleets body): a fleet plan in
  /// the atlas/fleet_json schema, optionally extended with service keys
  /// `tenant` (string, default "default") and `pace_ms` (number: sleep this
  /// long before each probe — turns a simulated fleet into a long-lived run
  /// for drain/recovery testing). The manifest is durable (fsync) before
  /// this returns, so an accepted run survives an immediate crash. The
  /// manifest fsync itself runs *outside* mutex_ (see DNSLOCATE_EXCLUDES):
  /// status/list/verdict calls never stall behind disk latency.
  SubmitResult submit(const std::string& body) DNSLOCATE_EXCLUDES(mutex_);

  /// Status snapshot; nullopt for an unknown id.
  [[nodiscard]] std::optional<RunStatus> status(const std::string& id) const
      DNSLOCATE_EXCLUDES(mutex_);

  /// Every known run (including recovered history), ascending by id.
  [[nodiscard]] std::vector<RunStatus> list() const DNSLOCATE_EXCLUDES(mutex_);

  /// Drain one run: fires its CancelToken (in-flight probes finish and are
  /// journaled) and finalizes it as cancelled. False for an unknown id;
  /// true (idempotently) otherwise.
  bool cancel(const std::string& id) DNSLOCATE_EXCLUDES(mutex_);

  /// Verdict lines with sequence >= from_seq. Lines are published in record
  /// completion order as the run executes (on a resumed run, journal-restored
  /// records replay first), so polling with the returned next_seq streams
  /// every verdict exactly once. nullopt for an unknown id.
  [[nodiscard]] std::optional<VerdictPage> verdicts(const std::string& id,
                                                    std::size_t from_seq)
      DNSLOCATE_EXCLUDES(mutex_);

  /// The full fleet-order record set as JSONL (the verdict lines joined in
  /// fleet order, equal to report::run_to_jsonl of the run) for a terminal
  /// run; nullopt while the run is still queued/running or for an unknown
  /// id. This is the byte-identity surface: equal, byte for byte,
  /// to an uninterrupted in-process run of the same plan.
  [[nodiscard]] std::optional<std::string> records_jsonl(const std::string& id)
      DNSLOCATE_EXCLUDES(mutex_);

  /// Graceful drain (SIGTERM): stop admitting (submit answers 503), fire
  /// every active run's cancel token, let in-flight probes finish and their
  /// journals sync, and join the worker pool. Interrupted runs keep their
  /// manifest un-marked so the next start resumes them. Idempotent; the
  /// destructor calls it.
  void drain() DNSLOCATE_EXCLUDES(mutex_);

  [[nodiscard]] bool draining() const;

  /// How many unfinished runs startup recovery re-queued.
  [[nodiscard]] std::size_t recovered_runs() const { return recovered_runs_; }

 private:
  struct Run;

  /// Spawn the worker pool if it is not running yet (and not draining).
  void start_workers() DNSLOCATE_REQUIRES(mutex_);
  void worker_loop() DNSLOCATE_EXCLUDES(mutex_);
  void execute(const std::shared_ptr<Run>& run) DNSLOCATE_EXCLUDES(mutex_);
  void recover_state_dir() DNSLOCATE_EXCLUDES(mutex_);
  /// `measured` (null when the runner threw) gives the census.
  void finalize(const std::shared_ptr<Run>& run, RunState state,
                const atlas::MeasurementRun* measured) DNSLOCATE_EXCLUDES(mutex_);
  [[nodiscard]] std::shared_ptr<Run> find(const std::string& id) const
      DNSLOCATE_EXCLUDES(mutex_);
  [[nodiscard]] RunStatus snapshot(const Run& run) const;
  /// Reload the record lines of a run completed by a *previous* process — or
  /// spilled by retention (we hold its journal, not its memory) — through
  /// atlas::join_journal. A no-op while the lines are resident.
  void ensure_lines_resident(Run& run) DNSLOCATE_EXCLUDES(mutex_);
  /// Record `id` as the most recently resident terminal run and spill the
  /// oldest residents beyond ServiceConfig::retain_terminal_runs. Callers
  /// must hold neither mutex_ nor any run mutex (declared lock order:
  /// mutex_ before any Run::mutex, tools/dnslint/lock_order.txt).
  void note_terminal_resident(const std::string& id) DNSLOCATE_EXCLUDES(mutex_);

  // Immutable after the constructor returns (recover_state_dir included).
  ServiceConfig config_;
  std::size_t recovered_runs_ = 0;
  std::atomic<bool> draining_{false};

  mutable netbase::Mutex mutex_;
  std::condition_variable work_ready_;
  /// Empty until the first work: a service that only serves history
  /// spawns no thread. drain() swaps the pool out and joins it.
  std::vector<std::thread> workers_ DNSLOCATE_GUARDED_BY(mutex_);
  std::map<std::string, std::shared_ptr<Run>> runs_
      DNSLOCATE_GUARDED_BY(mutex_);  // id -> run, ordered
  std::deque<std::shared_ptr<Run>> queue_ DNSLOCATE_GUARDED_BY(mutex_);
  /// Per-tenant count of submissions past the cap check but not yet
  /// registered (their manifest fsync runs outside mutex_).
  std::map<std::string, std::size_t> admitting_ DNSLOCATE_GUARDED_BY(mutex_);
  /// Terminal runs with records resident in memory, oldest first; bounded
  /// by ServiceConfig::retain_terminal_runs via note_terminal_resident.
  std::deque<std::string> terminal_order_ DNSLOCATE_GUARDED_BY(mutex_);
  std::uint64_t next_run_number_ DNSLOCATE_GUARDED_BY(mutex_) = 1;
};

}  // namespace dnslocate::service
