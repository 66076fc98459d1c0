// Flags shared by the example binaries (atlas_pilot, custom_fleet): the
// supervision knobs and the observability outputs. One parser, one help
// text, one behaviour — the binaries only keep their tool-specific flags.
#pragma once

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "atlas/measurement.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace dnslocate::examples {

/// The run-level cancellation token the signal handler fires. A static
/// local so the shared state exists before the handler can run.
inline core::CancelToken& drain_token() {
  static core::CancelToken token = core::CancelToken::manual();
  return token;
}

/// Install a graceful SIGINT/SIGTERM drain and return the token to put on
/// MeasurementOptions::cancel. The first signal cancels the token: workers
/// stop dispatching new probes, in-flight probes finish, and the journal is
/// flushed + fsync'd before run_fleet returns — a Ctrl-C'd run is always
/// resumable with --resume. SA_RESETHAND restores the default disposition,
/// so a second signal kills immediately (the journal still salvages).
inline core::CancelToken install_signal_drain() {
  drain_token();  // materialize shared state before the handler can fire
  struct sigaction action {};
  // cancel() is one relaxed atomic store on pre-existing shared state —
  // async-signal-safe in the only way that matters here.
  action.sa_handler = [](int) { drain_token().cancel(); };
  sigemptyset(&action.sa_mask);
  action.sa_flags = static_cast<int>(SA_RESETHAND);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  return drain_token();
}

/// Post-run drain report: if the run was interrupted by a signal, say what
/// survived and how to continue. Returns true when the run was drained.
inline bool report_signal_drain(const atlas::MeasurementRun& run, const char* journal) {
  if (!drain_token().cancelled()) return false;
  std::fprintf(stderr,
               "\ninterrupted by signal: %zu probes completed, %zu not run; "
               "journal %s — rerun with --resume to finish\n",
               run.records.size(), run.not_run,
               journal != nullptr ? journal : "disabled (pass --journal to checkpoint)");
  return true;
}

/// Common flag values. `journal` is a path for atlas_pilot and a prefix for
/// custom_fleet (which runs several journaled iterations) — the flag and its
/// validation are shared, the interpretation is the caller's.
struct CommonCli {
  const char* journal = nullptr;
  bool resume = false;
  long probe_deadline_ms = 0;
  long max_failures = 0;
  const char* metrics_out = nullptr;
  const char* trace_out = nullptr;
  long trace_buffer_events = 8192;
  long shards = 1;

  static constexpr const char* kUsage =
      "  --journal PATH        checkpoint completed probes to an append-only journal\n"
      "  --resume              restart from the journal, re-measuring only what is missing\n"
      "  --probe-deadline-ms N bound each probe's wall clock (overruns recorded as\n"
      "                        deadline_exceeded with a partial verdict)\n"
      "  --max-failures N      stop dispatching new probes after N failures\n"
      "  --shards N            shard the fleet across N worker shards (stable hash of\n"
      "                        probe id; per-probe results are identical at any shard\n"
      "                        count; 0 = one shard per hardware thread)\n"
      "  --metrics-out PATH    write registry metrics as Prometheus text exposition\n"
      "  --trace-out PATH      write spans as Chrome trace-event JSON (load in Perfetto\n"
      "                        or chrome://tracing)\n"
      "  --trace-buffer-events N  per-thread span ring capacity (default 8192)\n";

  /// Try to consume argv[i] (and its value) as a common flag. Returns true
  /// if consumed, advancing `i` past any value. Callers put this first in
  /// their argument loop and handle tool-specific flags on false.
  bool parse(int argc, char** argv, int& i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = value("--journal")) {
      journal = v;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (const char* v2 = value("--probe-deadline-ms")) {
      probe_deadline_ms = std::atol(v2);
    } else if (const char* v3 = value("--max-failures")) {
      max_failures = std::atol(v3);
    } else if (const char* v4 = value("--metrics-out")) {
      metrics_out = v4;
    } else if (const char* v5 = value("--trace-out")) {
      trace_out = v5;
    } else if (const char* v6 = value("--trace-buffer-events")) {
      trace_buffer_events = std::atol(v6);
    } else if (const char* v7 = value("--shards")) {
      shards = std::atol(v7);
    } else {
      return false;
    }
    return true;
  }

  /// Flag combinations that cannot work; prints to stderr, returns false.
  [[nodiscard]] bool validate() const {
    if (resume && journal == nullptr) {
      std::fprintf(stderr, "--resume requires --journal PATH\n");
      return false;
    }
    if (trace_buffer_events <= 0) {
      std::fprintf(stderr, "--trace-buffer-events must be positive\n");
      return false;
    }
    if (shards < 0) {
      std::fprintf(stderr, "--shards must be non-negative (0 = hardware threads)\n");
      return false;
    }
    return true;
  }

  /// Copy the supervision knobs onto measurement options. The journal path
  /// is NOT applied here (atlas_pilot uses it verbatim, custom_fleet derives
  /// per-iteration paths from it).
  void apply(atlas::MeasurementOptions& options) const {
    if (probe_deadline_ms > 0)
      options.probe_deadline = std::chrono::milliseconds(probe_deadline_ms);
    if (max_failures > 0) options.max_failures = static_cast<std::size_t>(max_failures);
    options.shards = static_cast<unsigned>(shards);
  }

  /// Turn the observability subsystem on if any output was requested. Must
  /// run before worker threads spawn (the enable flags are unsynchronized).
  void enable_observability() const {
    if (metrics_out == nullptr && trace_out == nullptr) return;
    obs::Config config;
    config.metrics = metrics_out != nullptr;
    config.tracing = trace_out != nullptr;
    config.trace_buffer_events = static_cast<std::size_t>(trace_buffer_events);
    obs::enable(config);
  }

  /// Write the requested exports. Call after the run, once workers joined.
  void export_observability() const {
    if (metrics_out != nullptr) {
      std::ofstream out(metrics_out);
      out << obs::prometheus_text();
      std::printf("wrote metrics to %s\n", metrics_out);
    }
    if (trace_out != nullptr) {
      std::ofstream out(trace_out);
      out << obs::chrome_trace_json();
      std::uint64_t lost = obs::collector().dropped();
      if (lost > 0)
        std::fprintf(stderr,
                     "trace: %llu spans overwritten (raise --trace-buffer-events)\n",
                     static_cast<unsigned long long>(lost));
      std::printf("wrote trace to %s (open in Perfetto or chrome://tracing)\n", trace_out);
    }
  }
};

}  // namespace dnslocate::examples
