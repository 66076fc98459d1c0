#include "trace.h"

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench::trace {
namespace {

struct Record {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  std::int64_t cpu_start_ns = -1;
  std::int64_t cpu_ns = 0;
  std::int32_t parent = -1;  // index in the same thread's buffer
  std::uint64_t unit = 0;
};

struct Buffer {
  std::uint32_t tid = 0;
  std::vector<Record> records;
  std::vector<std::int32_t> open;  // stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mutex
const auto g_epoch = std::chrono::steady_clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              g_epoch)
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Buffer& this_thread_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    buffer = g_buffers.back().get();
    buffer->tid = static_cast<std::uint32_t>(g_buffers.size());
    buffer->records.reserve(1 << 16);
  }
  return *buffer;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t unit, bool cpu) {
  if (!enabled()) return;
  Buffer& buffer = this_thread_buffer();
  Record record;
  record.name = name;
  record.parent = buffer.open.empty() ? -1 : buffer.open.back();
  record.unit = unit != 0 || record.parent < 0
                    ? unit
                    : buffer.records[static_cast<std::size_t>(record.parent)].unit;
  if (cpu) record.cpu_start_ns = thread_cpu_ns();
  record.start_ns = now_ns();
  index_ = static_cast<std::int32_t>(buffer.records.size());
  buffer.records.push_back(record);
  buffer.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  Buffer& buffer = this_thread_buffer();
  Record& record = buffer.records[static_cast<std::size_t>(index_)];
  record.end_ns = now_ns();
  if (record.cpu_start_ns >= 0) record.cpu_ns = thread_cpu_ns() - record.cpu_start_ns;
  buffer.open.pop_back();
}

std::map<std::string, LayerStat> layer_stats() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::map<std::string, LayerStat> out;
  for (const auto& buffer : g_buffers) {
    const auto& records = buffer->records;
    std::vector<std::int64_t> covered(records.size(), 0);
    for (const Record& r : records)
      if (r.parent >= 0 && r.end_ns >= 0)
        covered[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      if (r.end_ns < 0) continue;  // still open: not a completed span
      LayerStat& stat = out[r.name];
      const std::int64_t duration = r.end_ns - r.start_ns;
      stat.total_s += static_cast<double>(duration) * 1e-9;
      stat.self_s += static_cast<double>(duration - covered[i]) * 1e-9;
      stat.cpu_s += static_cast<double>(r.cpu_ns) * 1e-9;
      ++stat.count;
    }
  }
  return out;
}

std::map<std::uint64_t, double> unit_totals(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::map<std::uint64_t, double> out;
  for (const auto& buffer : g_buffers)
    for (const Record& r : buffer->records)
      if (r.end_ns >= 0 && name == r.name)
        out[r.unit] += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  return out;
}

long long write_chrome_trace(const std::string& path, std::size_t max_events) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return -1;
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", file);
  long long written = 0;
  bool first = true;
  for (const auto& buffer : g_buffers) {
    const auto& records = buffer->records;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      if (r.end_ns < 0) continue;
      if (static_cast<std::size_t>(written) >= max_events) break;
      // Span ids are (thread, index) pairs folded into one number.
      const auto id = [&](std::size_t index) {
        return (static_cast<unsigned long long>(buffer->tid) << 32) | index;
      };
      const bool root = r.parent < 0;
      const auto parent = static_cast<std::size_t>(root ? 0 : r.parent);
      std::fprintf(file,
                   "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,"
                   "\"parent\":\"%s\",\"parent_id\":%llu,\"unit\":%llu}}",
                   first ? "" : ",\n", r.name, static_cast<double>(r.start_ns) / 1000.0,
                   static_cast<double>(r.end_ns - r.start_ns) / 1000.0, buffer->tid, id(i),
                   root ? "" : records[parent].name, root ? 0ull : id(parent),
                   static_cast<unsigned long long>(r.unit));
      first = false;
      ++written;
    }
  }
  std::fputs("\n]}\n", file);
  bool ok = std::fclose(file) == 0;
  return ok ? written : -1;
}

}  // namespace perfbench::trace
