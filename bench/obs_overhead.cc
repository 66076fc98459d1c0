// Observability overhead: what do metrics and tracing cost a healthy fleet?
//
// The obs subsystem promises two things this harness verifies:
//   1. Disabled, the instrumentation is a branch per site — fleet throughput
//      must be statistically indistinguishable from a build without it.
//      (There is no such build to compare against, so the check is absolute:
//      enabled-vs-disabled, with the disabled runs as the baseline.)
//   2. Enabled (metrics + tracing), the overhead stays under 3% wall clock.
//   3. Registry totals agree to the digit with the per-record structs the
//      census sums — the registry is a mirror, never a second opinion.
//
// Methodology is the same median-of-paired-ratios scheme as
// supervision_overhead: back-to-back disabled/enabled pairs with alternating
// order cancel machine drift, and the median across pairs shrugs off spikes.
//
// Usage: obs_overhead [--smoke] [--json PATH]
//   --smoke runs one pair at a tiny scale and never fails the overhead
//   threshold (CI uses it to exercise the path, not to gate on a shared
//   runner's noise). Exactness and export checks still gate.
//   --json writes the measured numbers for archival (BENCH_obs.json in CI).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "jsonio/json.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "report/aggregate.h"

using namespace dnslocate;

namespace {

using bench::median;
using bench::run_ms;
using bench::same_matrix;

/// One named equality check against the registry; prints and accumulates.
struct Exactness {
  bool ok = true;
  void expect(const char* name, std::uint64_t registry_value, std::uint64_t census_value) {
    bool match = registry_value == census_value;
    if (!match)
      std::printf("  MISMATCH %s: registry %llu != census %llu\n", name,
                  static_cast<unsigned long long>(registry_value),
                  static_cast<unsigned long long>(census_value));
    ok = ok && match;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  const double scale = smoke ? 0.02 : 0.25;
  const int pairs = smoke ? 1 : 11;

  bench::heading("Observability overhead: disabled vs enabled fleet execution");

  atlas::FleetConfig config;
  config.scale = scale;
  auto fleet = atlas::generate_fleet(config);
  std::printf("[fleet] %zu probes, scale=%.2f, median of %d alternating pairs%s\n",
              fleet.size(), scale, pairs, smoke ? " (smoke)" : "");

  atlas::MeasurementOptions options;
  options.shards = 0;

  obs::Config enabled_config;
  enabled_config.metrics = true;
  enabled_config.tracing = true;

  atlas::MeasurementRun disabled_run, enabled_run;
  std::vector<double> ratios, control_ratios, disabled_times, enabled_times;
  for (int pair = 0; pair < pairs; ++pair) {
    // Each timed run starts from a clean slate so ring wraps and registry
    // lookups cost the same in every pair.
    auto timed_disabled = [&] {
      obs::disable();
      obs::registry().reset();
      obs::collector().clear();
      return run_ms(fleet, options, &disabled_run);
    };
    auto timed_enabled = [&] {
      obs::registry().reset();
      obs::collector().clear();
      obs::enable(enabled_config);
      double ms = run_ms(fleet, options, &enabled_run);
      obs::disable();
      return ms;
    };
    // Two disabled runs bracket the pair: the ratio between them is the
    // machine's noise floor (the "statistically zero" reference for the
    // disabled path — the instrumentation is compiled in for both).
    double disabled_a = 0.0, disabled_b = 0.0, enabled_ms = 0.0;
    if (pair % 2 == 0) {
      disabled_a = timed_disabled();
      enabled_ms = timed_enabled();
      disabled_b = timed_disabled();
    } else {
      enabled_ms = timed_enabled();
      disabled_a = timed_disabled();
      disabled_b = timed_disabled();
    }
    disabled_times.push_back(disabled_a);
    disabled_times.push_back(disabled_b);
    enabled_times.push_back(enabled_ms);
    double disabled_mid = (disabled_a + disabled_b) / 2.0;
    ratios.push_back((enabled_ms - disabled_mid) / disabled_mid);
    control_ratios.push_back((disabled_b - disabled_a) / disabled_a);
  }

  double overhead = median(ratios);
  double control = median(control_ratios);
  std::printf("\ndisabled: %.1f ms (median of %d)\n", median(disabled_times), pairs * 2);
  std::printf("enabled:  %.1f ms (median of %d; metrics + tracing)\n",
              median(enabled_times), pairs);
  std::printf("overhead: %+.2f%% (median of per-pair ratios)\n", overhead * 100.0);
  std::printf("control:  %+.2f%% (disabled vs disabled — the noise floor)\n",
              control * 100.0);

  bench::heading("checks");

  // 1. Observability must not change a single verdict.
  bool identical = same_matrix(report::accuracy_matrix(disabled_run),
                               report::accuracy_matrix(enabled_run));
  std::printf("identical accuracy matrix with obs on: %s\n", identical ? "pass" : "FAIL");

  // 2. Registry totals mirror the census sums exactly. One more (untimed)
  //    enabled run so the registry holds exactly one fleet's worth.
  obs::registry().reset();
  obs::collector().clear();
  obs::enable(enabled_config);
  run_ms(fleet, options, &enabled_run);
  obs::disable();
  auto census = report::run_census(enabled_run);
  Exactness exact;
  auto counter = [](const char* name) { return obs::registry().counter(name).value(); };
  exact.expect("transport_queries_total", counter("transport_queries_total"),
               census.telemetry.queries);
  exact.expect("transport_attempts_total", counter("transport_attempts_total"),
               census.telemetry.attempts);
  exact.expect("transport_retries_total", counter("transport_retries_total"),
               census.telemetry.retries);
  exact.expect("transport_timeouts_total", counter("transport_timeouts_total"),
               census.telemetry.timeouts);
  exact.expect("transport_answered_total", counter("transport_answered_total"),
               census.telemetry.answered);
  exact.expect("sim_drop_link_loss_total", counter("sim_drop_link_loss_total"),
               census.drops.link_loss);
  exact.expect("sim_drop_by_hook_total", counter("sim_drop_by_hook_total"),
               census.drops.by_hook);
  exact.expect("sim_drop_ttl_expired_total", counter("sim_drop_ttl_expired_total"),
               census.drops.ttl_expired);
  exact.expect("fault_burst_drops_total", counter("fault_burst_drops_total"),
               census.faults.burst_drops);
  exact.expect("fault_random_drops_total", counter("fault_random_drops_total"),
               census.faults.random_drops);
  exact.expect("probe_ok_total", counter("probe_ok_total"), census.ok);
  exact.expect("probe_failed_total", counter("probe_failed_total"), census.failed);
  exact.expect("pipeline_runs_total", counter("pipeline_runs_total"),
               enabled_run.records.size());
  std::printf("registry totals equal census sums: %s\n", exact.ok ? "pass" : "FAIL");

  // 3. Exporters produce parseable output from a real run.
  std::string prom = obs::prometheus_text();
  std::string trace = obs::chrome_trace_json();
  auto trace_json = jsonio::parse(trace);
  bool exports_ok = !prom.empty() && prom.find("# TYPE") != std::string::npos &&
                    trace_json.has_value() && (*trace_json)["traceEvents"].is_array() &&
                    !(*trace_json)["traceEvents"].as_array().empty();
  std::printf("prometheus and chrome-trace exports valid: %s\n",
              exports_ok ? "pass" : "FAIL");

  // 4. The machinery costs less than 3% wall clock, and the disabled path
  //    sits inside the noise floor (informational in smoke mode — one pair
  //    on a shared runner cannot resolve either).
  bool cheap = overhead < 0.03;
  std::printf("obs overhead under 3%%: %s%s\n", cheap ? "pass" : "FAIL",
              smoke ? " (not gating in smoke mode)" : "");
  bool quiet = control > -0.03 && control < 0.03;
  std::printf("disabled path within noise (|control| < 3%%): %s%s\n",
              quiet ? "pass" : "FAIL", smoke ? " (not gating in smoke mode)" : "");

  if (json_path != nullptr) {
    jsonio::Object out;
    out["bench"] = std::string("obs_overhead");
    out["smoke"] = smoke;
    out["pairs"] = static_cast<std::uint64_t>(pairs);
    out["scale"] = scale;
    out["fleet_probes"] = static_cast<std::uint64_t>(fleet.size());
    out["disabled_ms_median"] = median(disabled_times);
    out["enabled_ms_median"] = median(enabled_times);
    out["overhead_ratio_median"] = overhead;
    out["control_ratio_median"] = control;
    out["check_identical_verdicts"] = identical;
    out["check_registry_exact"] = exact.ok;
    out["check_exports_valid"] = exports_ok;
    out["check_overhead_under_3pct"] = cheap;
    std::ofstream file(json_path);
    file << jsonio::Value(std::move(out)).dump() << "\n";
    std::printf("wrote %s\n", json_path);
  }

  bool ok = identical && exact.ok && exports_ok && ((cheap && quiet) || smoke);
  std::printf("\noverall: %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}
