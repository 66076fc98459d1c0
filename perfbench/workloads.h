// The three workloads and what they share: the timing decorator around the
// query engine and the catalogue of per-layer metrics every traced run
// reports (see perfbench/README.md for what each one means).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "atlas/measurement.h"
#include "common.h"
#include "core/query_batch.h"
#include "trace.h"

namespace perfbench {

Result run_fleet_hostile(const Args& args);
Result run_live_loopback(const Args& args);
Result run_daemon_api(const Args& args);

/// Forwards run(QueryBatch&) and transport() to the wrapped engine, timing
/// each batch as a "core.engine_batch" span (wall and thread CPU). The
/// pipeline snapshots telemetry through transport(), so verdicts are those
/// of the bare engine.
class TimedEngine final : public dnslocate::core::AsyncQueryTransport {
 public:
  explicit TimedEngine(dnslocate::core::AsyncQueryTransport& inner) : inner_(inner) {}
  void run(dnslocate::core::QueryBatch& batch) override {
    trace::Span span("core.engine_batch", 0, /*cpu=*/true);
    inner_.run(batch);
  }
  [[nodiscard]] dnslocate::core::QueryTransport& transport() override {
    return inner_.transport();
  }

 private:
  dnslocate::core::AsyncQueryTransport& inner_;
};

/// Exact per-probe counts (telemetry, simulator drops and faults) over the
/// records added, reported as the per-layer "*_per_probe" metrics.
struct Counts {
  double probes = 0, queries = 0, attempts = 0, retries = 0, timeouts = 0, conflicts = 0,
         drops = 0, faults = 0;
  void add(const dnslocate::atlas::MeasurementRun& run) {
    for (const auto& record : run.records) {
      const auto& t = record.verdict.telemetry;
      const auto& f = record.faults;
      probes += 1;
      queries += static_cast<double>(t.queries);
      attempts += static_cast<double>(t.attempts);
      retries += static_cast<double>(t.retries);
      timeouts += static_cast<double>(t.timeouts);
      conflicts += static_cast<double>(t.conflicts);
      drops += static_cast<double>(record.drops.total());
      faults += static_cast<double>(f.burst_drops + f.random_drops + f.reordered +
                                    f.duplicated + f.truncated + f.jittered);
    }
  }
  /// Write the per-probe means into the per-layer metrics (none without
  /// records).
  void fill(std::map<std::string, double>& m) const {
    if (probes == 0) return;
    m["core.queries_per_probe"] = queries / probes;
    m["core.attempts_per_probe"] = attempts / probes;
    m["core.retries_per_probe"] = retries / probes;
    m["core.timeouts_per_probe"] = timeouts / probes;
    m["core.arbitration_conflicts_per_probe"] = conflicts / probes;
    m["simnet.drops_per_probe"] = drops / probes;
    m["simnet.faults_per_probe"] = faults / probes;
  }
};

/// What a workload measured with tracing off, for the end-to-end metrics.
/// Each workload says how it estimates the rates (see perfbench/README.md).
struct Measured {
  std::vector<double> setup_s;        // one per repeated set-up
  double probes_per_s = 0;
  double cpu_ms_per_probe = 0;        // process CPU, all threads
  std::vector<double> latency_ms;     // one per unit of work
  std::vector<double> turnaround_ms;  // one per run
};

/// Append the end-to-end metrics to `result` and print the tail latency
/// (with its percentile and sample count) and the failed fraction. Returns
/// the tail latency, which the per-layer table reports.
double report_end_to_end(Result& result, const Measured& measured);

/// On the probe workloads the named layers must account for the traced
/// probe: their self times sum to at least this share of it.
constexpr double kProbeLayerSumMin = 0.90;

/// Append every per-layer metric of the catalogue to `result`, in catalogue
/// order, taking values from `measured` (a layer the workload never enters
/// measures 0; failed_fraction comes from `result`), and print them as a
/// table. Checks trace.layer_sum_ratio within [layer_sum_min, 1].
void emit_layers(Result& result, std::map<std::string, double> measured, double layer_sum_min);

/// Per-unit figure of a traced layer: summed seconds over `units`, scaled.
inline double per_unit(double seconds, double units, double scale) {
  return units > 0 ? seconds / units * scale : 0.0;
}

}  // namespace perfbench
