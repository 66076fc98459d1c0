// Shared plumbing for the perfbench program: command-line arguments, the
// result every workload fills in, sample statistics, process accounting,
// host metadata, and the verdict signature the output checks compare.
#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for state dirs and trace files.
  std::string work_dir = ".bench_build/work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `end_to_end` is printed with --trace 0 and
/// `per_layer` with --trace 1; every workload fills both lists with the same
/// names (a layer a workload bypasses measures 0).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  /// Record one output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

double seconds_since(Clock::time_point start);

/// Median of a sample (0 for an empty one).
double median(std::vector<double> values);

/// The cost of a unit of work timed over several repeats: its fastest
/// repeat (0 for none). The host this benchmark runs on is shared, and
/// other tenants slow every unit, by up to a factor of two, for seconds to
/// minutes at a time (noise cause N5 in perfbench/README.md). They never
/// make one faster, so the fastest of many short repeats spread over the
/// run is the unit's cost in the run's quietest moments; it repeats across
/// runs where a mean, a median or even a low decile of the repeats does not.
double fastest(const std::vector<double>& values);

/// Repeats of each of a fixed list of units, by unit index.
class Repeats {
 public:
  void add(std::size_t unit, double value) {
    if (unit >= samples_.size()) samples_.resize(unit + 1);
    samples_[unit].push_back(value);
  }
  /// The fastest repeat of every unit, in unit order.
  [[nodiscard]] std::vector<double> fastest() const;
  /// Sum of fastest().
  [[nodiscard]] double fastest_sum() const;

 private:
  std::vector<std::vector<double>> samples_;
};

/// The highest percentile with at least ten samples beyond it: the value
/// with exactly ten larger samples (the maximum below eleven samples).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> values);

/// CPU time of the whole process, all threads (CLOCK_PROCESS_CPUTIME_ID:
/// user plus system, at nanosecond resolution).
double process_cpu_s();
/// Peak resident set size of the process.
double peak_rss_mb();

/// fsync/fdatasync calls the process made. The program replaces both libc
/// entry points with counters that answer as tmpfs does (see common.cc).
std::uint64_t fsync_count();

/// Moves the calling thread from CPU to CPU: each next() pins it to the
/// next of the CPUs it was allowed when the rotation began, round robin;
/// threads it starts afterwards inherit that one CPU. The host's
/// contention differs from vCPU to vCPU and moves between them within
/// seconds (noise cause N5 in perfbench/README.md), so a unit of work
/// repeated across every vCPU meets each one's quiet moments. The
/// destructor restores the original mask.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pin to the next CPU (no-op when the mask could not be read).
  void next();
  [[nodiscard]] std::size_t cpus() const { return cpus_.size(); }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// A thread at SCHED_IDLE priority that spins on the CPUs of the thread
/// that starts it whenever nothing else there is runnable, so a pinned
/// client and server hand that CPU back and forth without it ever halting
/// in between. A halted vCPU gives its core to other tenants, and the work
/// after each wake-up then refills caches at a cost that follows the host's
/// load (noise cause N5 in perfbench/README.md); this is the user-space
/// form of the idle=poll setting benchmarks use on bare metal. Its own CPU
/// time is excluded from the metrics through cpu_s().
class IdleSpinner {
 public:
  IdleSpinner();
  ~IdleSpinner();
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;
  /// CPU time the spinner has used so far.
  [[nodiscard]] double cpu_s() const;

 private:
  std::atomic<bool> spin_{true};
  std::thread thread_;
  clockid_t clock_{};
};

/// Filesystem type of `path` ("ext4", "tmpfs", ... or the magic in hex).
std::string filesystem_type(const std::string& path);

/// A fixed integer loop, timed. A diagnostic of host speed printed at the
/// start and end of every run; no metric is ever divided by it.
double calibration_ms();

/// Host metadata plus the opening calibration, printed before any work.
void print_host(const Args& args, const std::string& state_dir);

/// The evidence trail of one verdict: describe() + location + skipped mask.
std::string verdict_evidence(const dnslocate::core::ProbeVerdict& verdict);
/// The evidence plus the telemetry counts (no wall-clock artifacts).
std::string verdict_signature(const dnslocate::core::ProbeVerdict& verdict);

/// 64-bit FNV-1a, chainable.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash = 0xcbf29ce484222325ull);

/// Fresh empty directory under `parent` (created as needed).
std::string make_fresh_dir(const std::string& parent, const std::string& name);
void remove_tree(const std::string& path);

}  // namespace perfbench
