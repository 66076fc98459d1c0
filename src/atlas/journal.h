// Crash-tolerant checkpoint journal for fleet runs.
//
// Format: JSONL. The first line is a header naming the format, version, and
// a fingerprint of the fleet being measured; every following line is one
// completed probe wrapped with an FNV-1a checksum:
//
//   {"fingerprint":"<16 hex>","probes":9650,"format":"dnslocate-journal","version":1}
//   {"crc":"<16 hex of record dump>","record":{...full probe record...}}
//
// Every append reaches the OS before it returns and the file is fsync'd
// at most once a second; the fleet runner hands completed records to the
// writer in small batches, so a crash loses at most the last batch plus
// one partial line. The loader
// salvages every intact record: a truncated final line, a corrupted
// checksum, or an unparseable line each drop only that line (with a
// warning), and a header that does not match the fleet invalidates the
// journal as a whole — resume then re-runs everything rather than mixing
// records from a different study.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "atlas/measurement.h"
#include "jsonio/json.h"
#include "netbase/thread_annotations.h"

namespace dnslocate::atlas {

/// Journal file header (line 1).
struct JournalHeader {
  std::uint32_t version = 1;
  /// Fingerprint of the fleet: folds every probe's id, organization, and
  /// scenario configuration, so it pins seed, scale, and per-probe knobs.
  std::uint64_t fingerprint = 0;
  std::uint64_t fleet_size = 0;
};

/// Deterministic fingerprint over the full fleet specification.
std::uint64_t fleet_fingerprint(const std::vector<ProbeSpec>& fleet);

/// Serialize one record to the journal's JSON form. Round-trips everything
/// the report layer aggregates: verdict summaries, ground truth, transport
/// telemetry, drop/fault counters, and the supervision outcome.
jsonio::Value journal_record_to_json(const ProbeRecord& record);

/// Parse a journal record; nullopt when structurally invalid.
std::optional<ProbeRecord> journal_record_from_json(const jsonio::Value& value);

/// Serialize one record straight to its journal JSON text: byte-identical to
/// journal_record_to_json(record).dump() — the checksum covers exactly these
/// bytes — but without building the value tree, so checkpointing stays
/// cheap on the fleet's hot path (JournalWriter uses this form).
std::string journal_record_dump(const ProbeRecord& record);

/// Append-only journal writer. Thread-safe; every append reaches the OS
/// before it returns (surviving a crash of this process), and the file is
/// fsync'd at most once per `sync_interval` and on close (bounding loss on
/// power failure without an fsync per record).
class JournalWriter {
 public:
  /// Opens `path` truncating any previous contents and writes the header.
  /// Check ok() — a writer that failed to open drops appends silently.
  JournalWriter(const std::string& path, const JournalHeader& header,
                std::chrono::milliseconds sync_interval = std::chrono::seconds(1));
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  void append(const ProbeRecord& record) DNSLOCATE_EXCLUDES(mutex_);
  /// Append a batch of records with a single write to the OS: the cheap way
  /// to checkpoint from a hot loop (one syscall per batch, not per record).
  void append_batch(const std::vector<const ProbeRecord*>& batch) DNSLOCATE_EXCLUDES(mutex_);
  /// Append the record lines of the journal file at `path` verbatim,
  /// skipping its header: how a multi-shard run consolidates its segments
  /// without serializing every record twice. The caller guarantees the file
  /// was written under this journal's header.
  void append_journal_records(const std::string& path) DNSLOCATE_EXCLUDES(mutex_);
  /// Flush buffered lines and fsync.
  void sync() DNSLOCATE_EXCLUDES(mutex_);

  [[nodiscard]] bool ok() const DNSLOCATE_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t written() const DNSLOCATE_EXCLUDES(mutex_);

 private:
  /// Write already-serialized record lines (one per record) with a single
  /// write to the OS, then fsync on the time-based cadence.
  void write_lines(std::string_view lines, std::size_t records) DNSLOCATE_EXCLUDES(mutex_);

  // Immutable after construction.
  std::chrono::milliseconds sync_interval_;

  // The writer lock serializes appends from concurrent shard workers onto
  // the single file. It is a *leaf* capability (tools/dnslint/lock_order.txt):
  // nothing else is ever acquired under it, which is why holding it across
  // the fwrite/fflush (and the coarse time-based fsync) is safe — unlike
  // the service-wide mutex, it guards exactly the blocking resource itself.
  mutable netbase::Mutex mutex_;
  std::FILE* file_ DNSLOCATE_GUARDED_BY(mutex_) = nullptr;
  std::chrono::steady_clock::time_point last_sync_ DNSLOCATE_GUARDED_BY(mutex_){};
  std::size_t written_ DNSLOCATE_GUARDED_BY(mutex_) = 0;
};

/// Result of reading a journal back.
struct JournalLoadResult {
  JournalHeader header;
  std::vector<ProbeRecord> records;    // intact records, journal order
  std::vector<std::string> warnings;   // salvage notes (damaged lines)
  std::size_t damaged = 0;             // lines dropped by salvage
  std::string error;                   // fatal: unreadable / bad header

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parse journal text (tests feed doctored journals through this).
JournalLoadResult parse_journal(std::string_view text);

/// Read and parse a journal file.
JournalLoadResult load_journal(const std::string& path);

}  // namespace dnslocate::atlas
