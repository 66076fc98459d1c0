// Aggregating fleet measurements into the paper's tables and figures.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "atlas/measurement.h"
#include "report/barchart.h"
#include "report/table.h"

namespace dnslocate::report {

// --- Table 4: intercepted probes per public resolver, v4 & v6 ---

struct Table4Row {
  std::string resolver;  // "Cloudflare DNS" ... or "All Intercepted"
  std::size_t intercepted_v4 = 0;
  std::size_t total_v4 = 0;
  std::size_t intercepted_v6 = 0;
  std::size_t total_v6 = 0;
};

std::vector<Table4Row> table4_rows(const atlas::MeasurementRun& run);
TextTable render_table4(const atlas::MeasurementRun& run);

// --- Table 5: version.bind strings from CPE-intercepted probes ---

/// (string, probe count), descending by count then string.
std::vector<std::pair<std::string, std::size_t>> table5_rows(const atlas::MeasurementRun& run);
TextTable render_table5(const atlas::MeasurementRun& run);

// --- Figure 3: intercepted probes per top-N org, by transparency ---

struct Fig3Row {
  std::string org;
  std::size_t transparent = 0;
  std::size_t status_modified = 0;
  std::size_t both = 0;

  [[nodiscard]] std::size_t total() const { return transparent + status_modified + both; }
};

std::vector<Fig3Row> figure3_rows(const atlas::MeasurementRun& run, std::size_t top_n = 15);
BarChart render_figure3(const atlas::MeasurementRun& run, std::size_t top_n = 15);

// --- Figure 4: interception location per top-N country / org ---

struct Fig4Row {
  std::string label;  // country code or org
  std::size_t cpe = 0;
  std::size_t isp = 0;
  std::size_t unknown = 0;

  [[nodiscard]] std::size_t total() const { return cpe + isp + unknown; }
};

std::vector<Fig4Row> figure4_by_country(const atlas::MeasurementRun& run, std::size_t top_n = 15);
std::vector<Fig4Row> figure4_by_org(const atlas::MeasurementRun& run, std::size_t top_n = 15);
BarChart render_figure4(const std::vector<Fig4Row>& rows);

// --- accuracy vs ground truth (our ablation A2) ---

/// cells[expected][measured] probe counts over InterceptorLocation.
struct ConfusionMatrix {
  std::size_t cells[core::kInterceptorLocationCount][core::kInterceptorLocationCount] = {};
  [[nodiscard]] std::size_t total() const;
  [[nodiscard]] std::size_t correct() const;
  [[nodiscard]] double accuracy() const;
};

ConfusionMatrix accuracy_matrix(const atlas::MeasurementRun& run);
TextTable render_confusion(const ConfusionMatrix& matrix);

/// Interception-pattern census (§4.1.1): all four / one intercepted /
/// one allowed / other, per family.
struct PatternCensus {
  std::size_t all_four = 0;
  std::size_t one_intercepted = 0;
  std::size_t one_allowed = 0;
  std::size_t other = 0;
};

PatternCensus pattern_census(const atlas::MeasurementRun& run, netbase::IpFamily family);

// --- retry / timeout census (loss-resilience observability) ---

/// Fleet-wide transport telemetry: how many queries, retry attempts, and
/// attempt timeouts the pipeline spent, summed over probe verdicts.
struct RetryCensus {
  core::TransportTelemetry totals;
  std::size_t probes = 0;
  std::size_t probes_with_retries = 0;
  std::size_t probes_with_timeouts = 0;

  /// Mean attempts per query (1.0 when retries never fired).
  [[nodiscard]] double attempts_per_query() const {
    return totals.queries == 0
               ? 0.0
               : static_cast<double>(totals.attempts) / static_cast<double>(totals.queries);
  }
};

RetryCensus retry_census(const atlas::MeasurementRun& run);
TextTable render_retry_census(const RetryCensus& census);

// --- run health census (fleet supervision observability) ---

/// Fleet-wide supervision summary: per-outcome counts, partial verdicts,
/// transport/fault totals, the slowest probes, and every failure with its
/// error text. This is the operator's first look at a long campaign — did
/// anything crash, hang, or get skipped, and where did the time go?
struct RunCensus {
  std::size_t probes = 0;  // records present in the run
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t deadline_exceeded = 0;
  std::size_t partial_verdicts = 0;  // stages skipped by cancellation
  std::size_t not_run = 0;           // planned but never started (early stop)
  core::TransportTelemetry telemetry;
  simnet::DropCounters drops;
  simnet::FaultPlan::Counters faults;
  std::chrono::microseconds total_elapsed{0};

  struct ProbeNote {
    std::uint32_t probe_id = 0;
    std::string org;
    std::chrono::microseconds elapsed{0};
    atlas::ProbeOutcome outcome = atlas::ProbeOutcome::ok;
    std::string error;
  };
  std::vector<ProbeNote> slowest;   // top-N by elapsed, descending
  std::vector<ProbeNote> failures;  // first N non-ok probes with error text
};

RunCensus run_census(const atlas::MeasurementRun& run, std::size_t top_n = 5);
/// Outcome/telemetry table (deterministic; no wall-clock columns). The
/// slowest-probe timings are rendered separately by the examples.
TextTable render_run_census(const RunCensus& census);

/// Accuracy restricted to probes whose ground truth is "intercepted": the
/// localization part of the task (CPE / ISP / unknown), where loss-induced
/// misclassification concentrates.
struct LocalizationAccuracy {
  std::size_t intercepted_truth = 0;  // probes that are actually intercepted
  std::size_t correct = 0;
  std::size_t missed = 0;       // classified not_intercepted (false negative)
  std::size_t wrong_layer = 0;  // intercepted but at the wrong location
  std::size_t contested = 0;    // honest refusal: conflicting answers in path

  [[nodiscard]] double accuracy() const {
    return intercepted_truth == 0
               ? 1.0
               : static_cast<double>(correct) / static_cast<double>(intercepted_truth);
  }
};

LocalizationAccuracy localization_accuracy(const atlas::MeasurementRun& run);

}  // namespace dnslocate::report
