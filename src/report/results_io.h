// Measurement-result persistence: one JSON object per probe (JSONL), with
// enough detail to re-aggregate every table, figure and census offline —
// the equivalent of publishing the pilot study's dataset.
//
// There is no export format of its own: each line is the probe's journal
// record (atlas/journal.h) without its one wall-clock member, `elapsed_us`,
// and lines load through the journal's record parser. The export is
// therefore byte-identical across reruns, shard counts and resumes, and
// reloads everything but the probes' timings.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "atlas/measurement.h"

namespace dnslocate::report {

/// One probe record as an export line (no trailing newline).
std::string probe_to_json(const atlas::ProbeRecord& record);

/// Whole run -> JSONL text (one probe per line, trailing newline).
std::string run_to_jsonl(const atlas::MeasurementRun& run);

/// Parse JSONL back into records. Fields the JSON lacks (raw responses,
/// elapsed time) stay default. A line that is not a record the journal's
/// parser accepts (a known `outcome` and `location` are required) is
/// reported in `errors` (line numbers, 1-based) and skipped.
struct JsonlLoadResult {
  atlas::MeasurementRun run;
  std::vector<std::string> errors;

  [[nodiscard]] bool ok() const { return errors.empty(); }
};

JsonlLoadResult run_from_jsonl(std::string_view text);

}  // namespace dnslocate::report
