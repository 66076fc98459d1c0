// perfbench: runs one workload for a fixed time and prints, as its
// last line, {"correct", "attempted", "failed", "metrics"} — the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
//   perfbench --workload fleet_hostile|live_loopback|daemon_api
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Normally started through perfbench/run.py, which builds it first.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

struct LayerDef {
  const char* name;
  const char* unit;
};

// Every traced run reports all of these, whichever workload it is; what
// each one measures and which end-to-end metric it should move is in
// perfbench/README.md.
constexpr LayerDef kLayers[] = {
    {"atlas.generate_fleet_ms", "ms"},
    {"atlas.scenario_build_us", "us"},
    {"atlas.scenario_teardown_us", "us"},
    {"atlas.shard_skew", "ratio"},
    {"atlas.journal_record_dump_us", "us"},
    {"atlas.journal_bytes_per_probe", "bytes"},
    {"atlas.journal_reload_ms", "ms"},
    {"core.pipeline_self_us", "us"},
    {"core.engine_batch_us", "us"},
    {"core.engine_batch_cpu_us", "us"},
    {"core.engine_batch_wait_us", "us"},
    {"core.batches_per_probe", "count"},
    {"core.queries_per_probe", "count"},
    {"core.attempts_per_probe", "count"},
    {"core.retries_per_probe", "count"},
    {"core.timeouts_per_probe", "count"},
    {"core.arbitration_conflicts_per_probe", "count"},
    {"simnet.drops_per_probe", "count"},
    {"simnet.faults_per_probe", "count"},
    {"core.describe_us", "us"},
    {"report.probe_to_json_us", "us"},
    {"report.run_to_jsonl_ms", "ms"},
    {"report.aggregate_ms", "ms"},
    {"resolvers.respond_us", "us"},
    {"service.http_parse_us", "us"},
    {"service.route_us.submit", "us"},
    {"service.route_us.list", "us"},
    {"service.route_us.status", "us"},
    {"service.route_us.verdicts", "us"},
    {"service.route_us.records", "us"},
    {"service.route_us.metrics", "us"},
    {"service.route_us.healthz", "us"},
    {"service.submit_us", "us"},
    {"jsonio.parse_plan_us", "us"},
    {"service.http_overhead_ms", "ms"},
    {"service.fsyncs_per_run", "count"},
    {"service.requests.200", "count"},
    {"service.requests.202", "count"},
    {"service.requests.other", "count"},
    {"latency_ms_tail", "ms"},
    {"failed_fraction", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.layer_sum_ratio", "ratio"},
};

// The named layers' self times never sum to more than the traced unit.
constexpr double kLayerSumMax = 1.0 + 1e-9;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fleet_hostile|live_loopback|daemon_api --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage("missing value after a flag");
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || args.seconds <= 0) usage("bad --seconds");
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage("bad --trace");
      args.trace = value[0] == '1';
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      args.work_dir = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

double failed_fraction(const Result& result) {
  return result.attempted > 0
             ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
             : 0.0;
}

void print_json(const Result& result, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

double report_end_to_end(Result& result, const Measured& measured) {
  const Tail tail = tail_of(measured.latency_ms);
  std::printf("latency_ms_tail=%.3f percentile=%.4f samples=%zu\n", tail.value,
              tail.percentile, tail.samples);
  std::printf("failed_fraction=%.6f (%llu of %llu)\n", failed_fraction(result),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  result.e2e("setup_s", median(measured.setup_s), "s");
  result.e2e("probes_per_s", measured.probes_per_s, "1/s");
  result.e2e("cpu_ms_per_probe", measured.cpu_ms_per_probe, "ms");
  result.e2e("latency_ms_p50", median(measured.latency_ms), "ms");
  result.e2e("run_turnaround_ms_p50", median(measured.turnaround_ms), "ms");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  return tail.value;
}

void emit_layers(Result& result, std::map<std::string, double> measured, double layer_sum_min) {
  measured["failed_fraction"] = failed_fraction(result);
  std::printf("\n%-40s %16s  %s\n", "layer", "value", "unit");
  for (const LayerDef& layer : kLayers) {
    auto it = measured.find(layer.name);
    double value = it == measured.end() ? 0.0 : it->second;
    std::printf("%-40s %16.4f  %s\n", layer.name, value, layer.unit);
    result.layer(layer.name, value, layer.unit);
  }
  for (const auto& [name, value] : measured) {
    bool known = false;
    for (const LayerDef& layer : kLayers) known = known || name == layer.name;
    if (!known) std::fprintf(stderr, "perfbench: layer %s is not in the catalogue\n", name.c_str());
  }
  auto ratio = measured.find("trace.layer_sum_ratio");
  double value = ratio == measured.end() ? 0.0 : ratio->second;
  char what[96];
  std::snprintf(what, sizeof what, "trace.layer_sum_ratio %.4f within [%.2f, 1]", value,
                layer_sum_min);
  result.check(value >= layer_sum_min && value <= kLayerSumMax, what);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = parse_args(argc, argv);
  std::filesystem::create_directories(args.work_dir);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  Result result;
  if (args.workload == "fleet_hostile") result = run_fleet_hostile(args);
  else if (args.workload == "live_loopback") result = run_live_loopback(args);
  else if (args.workload == "daemon_api") result = run_daemon_api(args);
  else usage("unknown workload");

  if (args.trace) {
    std::string path = args.work_dir + "/trace-" + args.workload + ".json";
    long long events = trace::write_chrome_trace(path, 200000);
    std::printf("trace_file=%s events=%lld\n", path.c_str(), events);
    result.check(events > 0, "trace spans written");
  } else {
    for (const Metric& m : result.end_to_end)
      std::printf("%-24s %16.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("calibration_end_ms=%.3f\n", calibration_ms());
  print_json(result, args.trace ? result.per_layer : result.end_to_end);
  return 0;
}
