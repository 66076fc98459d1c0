#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <thread>

#include "core/describe.h"

namespace {

std::atomic<std::uint64_t> g_fsyncs{0};

}  // namespace

// Counting stand-ins for the libc durability calls. The libraries are
// linked statically into this executable, so their fsync/fdatasync calls
// bind here. They answer as the calls do on tmpfs -- success, nothing
// forced to the device -- so the daemon's latency does not follow the disk
// under the checkout (noise cause N2 in perfbench/README.md), while the
// count stays visible as service.fsyncs_per_run. Data is still written to
// the state directory's files; only the flush to the device is skipped.
extern "C" int fsync(int) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

extern "C" int fdatasync(int) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) correct = false;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

std::vector<double> Repeats::fastest() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& repeats : samples_) out.push_back(perfbench::fastest(repeats));
  return out;
}

double Repeats::fastest_sum() const {
  double sum = 0;
  for (double value : fastest()) sum += value;
  return sum;
}

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  if (n <= 10) {
    tail.value = values.back();
    return tail;
  }
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fsync_count() { return g_fsyncs.load(std::memory_order_relaxed); }

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (::pthread_getaffinity_np(::pthread_self(), sizeof original_, &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) ::pthread_setaffinity_np(::pthread_self(), sizeof original_, &original_);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
  ::pthread_setaffinity_np(::pthread_self(), sizeof one, &one);
}

IdleSpinner::IdleSpinner()
    : thread_([this] {
        sched_param param{};
        ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
        while (spin_.load(std::memory_order_relaxed)) {
        }
      }) {
  ::pthread_getcpuclockid(thread_.native_handle(), &clock_);
}

IdleSpinner::~IdleSpinner() {
  spin_ = false;
  thread_.join();
}

double IdleSpinner::cpu_s() const {
  timespec ts{};
  clock_gettime(clock_, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x9123683E: return "btrfs";
    case 0x58465342: return "xfs";
    case 0x794C7630: return "overlayfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(info.f_type));
  return hex;
}

double calibration_ms() {
  auto start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  double ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  // Keep the loop observable so it cannot be folded away.
  if (x == 0) std::printf("calibration sentinel\n");
  return ms;
}

void print_host(const Args& args, const std::string& state_dir) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf("host cores=%u compiler=\"%s\" build_type=%s commit=%s state_dir_fs=%s "
              "fsync=counted,not-forwarded\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              commit != nullptr && commit[0] != '\0' ? commit : "unknown",
              state_dir.empty() ? "none" : filesystem_type(state_dir).c_str());
  std::printf("run workload=%s seed=%llu seconds=%.3f trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("calibration_start_ms=%.3f\n", calibration_ms());
}

std::string verdict_evidence(const dnslocate::core::ProbeVerdict& verdict) {
  std::string s = dnslocate::core::describe(verdict);
  s += "\nlocation=" + std::string(dnslocate::core::to_string(verdict.location));
  s += " skipped=" + std::to_string(verdict.skipped_stages);
  return s;
}

std::string verdict_signature(const dnslocate::core::ProbeVerdict& verdict) {
  std::string s = verdict_evidence(verdict);
  const auto& t = verdict.telemetry;
  s += " queries=" + std::to_string(t.queries);
  s += " attempts=" + std::to_string(t.attempts);
  s += " retries=" + std::to_string(t.retries);
  s += " timeouts=" + std::to_string(t.timeouts);
  s += " answered=" + std::to_string(t.answered);
  s += " conflicts=" + std::to_string(t.conflicts);
  s += " spoof=" + std::to_string(t.spoof_suspected);
  s += " malformed=" + std::to_string(t.malformed);
  s += " recased=" + std::to_string(t.case_mismatches);
  return s;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (char c : bytes) hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  return hash;
}

std::string make_fresh_dir(const std::string& parent, const std::string& name) {
  namespace fs = std::filesystem;
  fs::path dir = fs::path(parent) / (name + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void remove_tree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

}  // namespace perfbench
