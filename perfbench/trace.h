// The benchmark's own span recorder. Spans are opened around calls into the
// program's public functions from the benchmark's files (the program itself
// is not instrumented): name, start, end, parent span and the unit of work
// (probe id or request id) they belong to. They live in per-thread memory
// while the run measures and are written once, at exit, in the Chrome
// trace-event format obs::chrome_trace_json emits.
//
// A layer's self time is its span's duration minus what its child spans
// cover; layer_stats() folds every span into per-name totals.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::trace {

/// Spans record only while enabled; a disabled Span is one branch.
void set_enabled(bool on);
bool enabled();

class Span {
 public:
  /// `unit` is the probe or request id; 0 inherits the parent's. With
  /// `cpu` the span also records the calling thread's CPU time.
  explicit Span(const char* name, std::uint64_t unit = 0, bool cpu = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_ = -1;
};

struct LayerStat {
  double total_s = 0.0;  // summed span durations
  double self_s = 0.0;   // summed durations minus child coverage
  double cpu_s = 0.0;    // summed thread CPU (spans opened with cpu only)
  std::uint64_t count = 0;
};

/// Per-name totals over every recorded span.
std::map<std::string, LayerStat> layer_stats();

/// Summed durations (seconds) of the spans called `name`, per unit id.
std::map<std::uint64_t, double> unit_totals(const std::string& name);

/// Write every span (at most `max_events`, oldest first per thread) as
/// Chrome trace-event JSON. Returns the number of events written, or -1
/// when the file cannot be written.
long long write_chrome_trace(const std::string& path, std::size_t max_events);

}  // namespace perfbench::trace
