#include "atlas/journal.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "resolvers/public_resolver.h"

namespace dnslocate::atlas {
namespace {

/// The whole file at `path`; nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream input(path, std::ios::binary);
  if (!input) return std::nullopt;
  std::stringstream buffer;
  buffer << input.rdbuf();
  return std::move(buffer).str();
}

/// fsync the journal file, timing the call. Durability syncs are the one
/// genuinely slow operation on the checkpoint path, so their latency gets
/// its own histogram and span.
void fsync_journal(std::FILE* file) {
  obs::Span fsync_span("journal/fsync");
  if (obs::metrics_enabled()) {
    static obs::Counter& fsyncs = obs::registry().counter("journal_fsyncs_total");
    static obs::Histogram& fsync_us = obs::registry().histogram("journal_fsync_us");
    std::uint64_t start = obs::now_ns();
    ::fsync(::fileno(file));
    fsync_us.record_always((obs::now_ns() - start) / 1000);
    fsyncs.add_always(1);
    return;
  }
  ::fsync(::fileno(file));
}

using jsonio::Object;
using jsonio::Value;

constexpr std::string_view kFormatName = "dnslocate-journal";
constexpr std::uint32_t kFormatVersion = 1;

constexpr std::string_view kLocationNames[] = {"not_intercepted", "cpe", "isp", "unknown",
                                               "contested"};
constexpr std::string_view kTransparencyNames[] = {"transparent", "status_modified", "both",
                                                   "indeterminate"};

std::uint64_t fnv1a(std::string_view text, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (char c : text) h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
  return h;
}

std::string to_hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::optional<std::uint64_t> from_hex(const std::string& text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return std::nullopt;
  }
  return value;
}

/// Field folding for the fleet fingerprint.
struct Fold {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void operator()(std::string_view s) {
    h = fnv1a(s, h);
    h = (h ^ 0x1f) * 0x100000001b3ull;  // delimit, so ("ab","c") != ("a","bc")
  }
  void operator()(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  void operator()(double d) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof d);
    std::memcpy(&bits, &d, sizeof bits);
    (*this)(bits);
  }
  void operator()(bool b) { (*this)(static_cast<std::uint64_t>(b)); }
};

core::TransportTelemetry telemetry_from_json(const Value& value) {
  core::TransportTelemetry t;
  t.answered = static_cast<std::uint64_t>(value["answered"].as_int());
  t.attempts = static_cast<std::uint64_t>(value["attempts"].as_int());
  t.queries = static_cast<std::uint64_t>(value["queries"].as_int());
  t.retries = static_cast<std::uint64_t>(value["retries"].as_int());
  t.timeouts = static_cast<std::uint64_t>(value["timeouts"].as_int());
  return t;
}

simnet::DropCounters drops_from_json(const Value& value) {
  simnet::DropCounters d;
  d.by_hook = static_cast<std::uint64_t>(value["by_hook"].as_int());
  d.fault_burst = static_cast<std::uint64_t>(value["fault_burst"].as_int());
  d.fault_random = static_cast<std::uint64_t>(value["fault_random"].as_int());
  d.link_loss = static_cast<std::uint64_t>(value["link_loss"].as_int());
  d.no_listener = static_cast<std::uint64_t>(value["no_listener"].as_int());
  d.no_route = static_cast<std::uint64_t>(value["no_route"].as_int());
  d.queue_overflow = static_cast<std::uint64_t>(value["queue_overflow"].as_int());
  d.ttl_expired = static_cast<std::uint64_t>(value["ttl_expired"].as_int());
  return d;
}

simnet::FaultPlan::Counters faults_from_json(const Value& value) {
  simnet::FaultPlan::Counters f;
  f.burst_drops = static_cast<std::uint64_t>(value["burst_drops"].as_int());
  f.duplicated = static_cast<std::uint64_t>(value["duplicated"].as_int());
  f.jittered = static_cast<std::uint64_t>(value["jittered"].as_int());
  f.random_drops = static_cast<std::uint64_t>(value["random_drops"].as_int());
  f.reordered = static_cast<std::uint64_t>(value["reordered"].as_int());
  f.truncated = static_cast<std::uint64_t>(value["truncated"].as_int());
  return f;
}

std::optional<core::InterceptorLocation> location_from(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kLocationNames); ++i)
    if (kLocationNames[i] == name) return static_cast<core::InterceptorLocation>(i);
  return std::nullopt;
}

Value header_to_json(const JournalHeader& header) {
  Object out;
  out["fingerprint"] = to_hex(header.fingerprint);
  out["fleet_size"] = header.fleet_size;
  out["format"] = std::string(kFormatName);
  out["version"] = static_cast<std::uint64_t>(header.version);
  return Value(std::move(out));
}

}  // namespace

std::uint64_t fleet_fingerprint(const std::vector<ProbeSpec>& fleet) {
  Fold fold;
  fold(static_cast<std::uint64_t>(fleet.size()));
  for (const ProbeSpec& spec : fleet) {
    fold(static_cast<std::uint64_t>(spec.probe_id));
    fold(spec.org.org);
    fold(static_cast<std::uint64_t>(spec.org.asn));
    fold(spec.org.country);
    const ScenarioConfig& sc = spec.scenario;
    fold(sc.seed);
    fold(sc.isp_name);
    fold(static_cast<std::uint64_t>(sc.asn));
    fold(static_cast<std::uint64_t>(sc.home_index));
    fold(static_cast<std::uint64_t>(sc.cpe.kind));
    fold(sc.cpe.version);
    fold(sc.cpe.identity ? *sc.cpe.identity : std::string_view("\x01"));
    fold(sc.isp_policy.middlebox_enabled);
    fold(sc.isp_policy.intercept_all_port53);
    fold(static_cast<std::uint64_t>(sc.isp_policy.target_actions.size()));
    for (const auto& [kind, action] : sc.isp_policy.target_actions) {
      fold(static_cast<std::uint64_t>(kind));
      fold(static_cast<std::uint64_t>(action));
    }
    fold(static_cast<std::uint64_t>(sc.isp_policy.target_actions_v6.size()));
    for (const auto& [kind, action] : sc.isp_policy.target_actions_v6) {
      fold(static_cast<std::uint64_t>(kind));
      fold(static_cast<std::uint64_t>(action));
    }
    fold(sc.isp_policy.scoped_answers_bogons);
    fold(sc.isp_policy.intercept_v4);
    fold(sc.isp_policy.intercept_v6);
    fold(sc.isp_policy.ignore_bogon_queries);
    fold(static_cast<std::uint64_t>(sc.blocking_rcode));
    fold(sc.external_interceptor);
    fold(sc.home_ipv6);
    fold(static_cast<std::uint64_t>(sc.site_index));
    fold(static_cast<std::uint64_t>(sc.instance));
    fold(sc.faults.p_good_to_bad);
    fold(sc.faults.p_bad_to_good);
    fold(sc.faults.loss_good);
    fold(sc.faults.loss_bad);
    fold(sc.faults.reorder_rate);
    fold(sc.faults.duplicate_rate);
    fold(sc.faults.truncate_rate);
    fold(static_cast<std::uint64_t>(sc.faults.jitter_max.count()));
    fold(static_cast<std::uint64_t>(sc.fault_classes.size()));
    for (const std::string& fault_class : sc.fault_classes) fold(fault_class);
    fold(sc.fault_seed);
    fold(static_cast<std::uint64_t>(sc.retry.max_attempts));
    fold(static_cast<std::uint64_t>(sc.retry.initial_backoff.count()));
    fold(sc.retry.backoff_multiplier);
    fold(static_cast<std::uint64_t>(sc.retry.max_backoff.count()));
    fold(sc.retry.fresh_id_per_attempt);
    fold(sc.retry.rerandomize_0x20);
  }
  return fold.h;
}

namespace {

// Emission helpers for journal_record_dump. Each member is written with a
// trailing comma that close_object turns into the closing brace; keys must
// come in sorted order within each object, as jsonio's std::map-backed
// dump has them, so that the dump is canonical JSON.
void emit_key(std::string& out, std::string_view name) {
  out.push_back('"');
  out.append(name);
  out.append("\":");
}

void emit_uint(std::string& out, std::string_view name, std::uint64_t value) {
  emit_key(out, name);
  char buffer[24];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  (void)ec;
  out.append(buffer, end);
  out.push_back(',');
}

void emit_bool(std::string& out, std::string_view name, bool value) {
  emit_key(out, name);
  out.append(value ? "true," : "false,");
}

void emit_string(std::string& out, std::string_view name, std::string_view value) {
  emit_key(out, name);
  out.append(jsonio::escape(value));
  out.push_back(',');
}

void open_object(std::string& out, std::string_view name) {
  emit_key(out, name);
  out.push_back('{');
}

void close_object(std::string& out) {
  if (out.back() == ',') out.back() = '}';
  else out.push_back('}');
  out.push_back(',');
}

}  // namespace

std::string journal_record_dump(const ProbeRecord& record, bool with_elapsed) {
  const core::ProbeVerdict& verdict = record.verdict;
  std::string out;
  out.reserve(1400);
  out.push_back('{');
  emit_uint(out, "asn", record.org.asn);
  if (verdict.bogon) emit_bool(out, "bogon_answered", verdict.bogon->within_isp());
  emit_string(out, "country", record.org.country);
  if (verdict.cpe_check && verdict.cpe_check->cpe.has_string()) {
    emit_bool(out, "cpe_is_interceptor", verdict.cpe_check->cpe_is_interceptor);
    emit_string(out, "cpe_version_bind", *verdict.cpe_check->cpe.txt);
  }

  open_object(out, "detection");
  std::array<std::pair<std::string_view, const core::ResolverInterception*>,
             std::tuple_size_v<decltype(core::DetectionReport::per_resolver)>>
      resolvers_by_name;
  for (std::size_t i = 0; i < resolvers_by_name.size(); ++i) {
    const auto& summary = verdict.detection.per_resolver[i];
    resolvers_by_name[i] = {to_string(summary.kind), &summary};
  }
  std::sort(resolvers_by_name.begin(), resolvers_by_name.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [name, entry] : resolvers_by_name) {
    const auto& summary = *entry;
    open_object(out, name);
    emit_bool(out, "intercepted_v4", summary.intercepted_v4);
    emit_bool(out, "intercepted_v6", summary.intercepted_v6);
    emit_bool(out, "tested_v4", summary.tested_v4);
    emit_bool(out, "tested_v6", summary.tested_v6);
    emit_bool(out, "unreachable_v4", summary.unreachable_v4);
    emit_bool(out, "unreachable_v6", summary.unreachable_v6);
    close_object(out);
  }
  close_object(out);

  open_object(out, "drops");
  emit_uint(out, "by_hook", record.drops.by_hook);
  emit_uint(out, "fault_burst", record.drops.fault_burst);
  emit_uint(out, "fault_random", record.drops.fault_random);
  emit_uint(out, "link_loss", record.drops.link_loss);
  emit_uint(out, "no_listener", record.drops.no_listener);
  emit_uint(out, "no_route", record.drops.no_route);
  emit_uint(out, "queue_overflow", record.drops.queue_overflow);
  emit_uint(out, "ttl_expired", record.drops.ttl_expired);
  close_object(out);

  if (with_elapsed)
    emit_uint(out, "elapsed_us", static_cast<std::uint64_t>(record.elapsed.count()));
  if (!record.error.empty()) emit_string(out, "error", record.error);

  open_object(out, "faults");
  emit_uint(out, "burst_drops", record.faults.burst_drops);
  emit_uint(out, "duplicated", record.faults.duplicated);
  emit_uint(out, "jittered", record.faults.jittered);
  emit_uint(out, "random_drops", record.faults.random_drops);
  emit_uint(out, "reordered", record.faults.reordered);
  emit_uint(out, "truncated", record.faults.truncated);
  close_object(out);

  emit_string(out, "location", kLocationNames[static_cast<std::size_t>(verdict.location)]);
  emit_string(out, "org", record.org.org);
  emit_string(out, "outcome", to_string(record.outcome));
  emit_uint(out, "probe_id", record.probe_id);
  if (verdict.skipped_stages != 0) emit_uint(out, "skipped_stages", verdict.skipped_stages);

  open_object(out, "telemetry");
  emit_uint(out, "answered", verdict.telemetry.answered);
  emit_uint(out, "attempts", verdict.telemetry.attempts);
  emit_uint(out, "queries", verdict.telemetry.queries);
  emit_uint(out, "retries", verdict.telemetry.retries);
  emit_uint(out, "timeouts", verdict.telemetry.timeouts);
  close_object(out);

  emit_bool(out, "tested_v6", record.tested_v6);
  if (verdict.transparency) {
    emit_string(out, "transparency",
                kTransparencyNames[static_cast<std::size_t>(verdict.transparency->overall)]);
  }

  open_object(out, "truth");
  emit_bool(out, "cpe_intercepts", record.truth.cpe_intercepts);
  emit_string(out, "expected", kLocationNames[static_cast<std::size_t>(record.truth.expected)]);
  emit_bool(out, "external_intercepts", record.truth.external_intercepts);
  emit_bool(out, "isp_answers_bogons", record.truth.isp_answers_bogons);
  emit_bool(out, "isp_intercepts_v4", record.truth.isp_intercepts_v4);
  emit_bool(out, "isp_intercepts_v6", record.truth.isp_intercepts_v6);
  close_object(out);
  out.back() = '}';
  return out;
}

std::optional<ProbeRecord> journal_record_from_json(const Value& value) {
  if (!value.is_object()) return std::nullopt;
  ProbeRecord record;
  record.probe_id = static_cast<std::uint32_t>(value["probe_id"].as_int());
  record.org.org = value["org"].as_string();
  record.org.asn = static_cast<std::uint32_t>(value["asn"].as_int());
  record.org.country = value["country"].as_string();
  record.tested_v6 = value["tested_v6"].as_bool();

  auto outcome = probe_outcome_from(value["outcome"].as_string());
  if (!outcome) return std::nullopt;
  record.outcome = *outcome;
  record.error = value["error"].as_string();
  record.elapsed = std::chrono::microseconds(value["elapsed_us"].as_int());

  auto location = location_from(value["location"].as_string());
  if (!location) return std::nullopt;
  record.verdict.location = *location;
  record.verdict.skipped_stages =
      static_cast<std::uint8_t>(value["skipped_stages"].as_int());

  const Value& detection = value["detection"];
  for (auto kind : resolvers::all_public_resolvers()) {
    const Value& entry = detection[std::string(to_string(kind))];
    auto& summary = record.verdict.detection.per_resolver[static_cast<std::size_t>(kind)];
    summary.intercepted_v4 = entry["intercepted_v4"].as_bool();
    summary.intercepted_v6 = entry["intercepted_v6"].as_bool();
    summary.tested_v4 = entry["tested_v4"].as_bool();
    summary.tested_v6 = entry["tested_v6"].as_bool();
    summary.unreachable_v4 = entry["unreachable_v4"].as_bool();
    summary.unreachable_v6 = entry["unreachable_v6"].as_bool();
  }

  if (value["transparency"].is_string()) {
    const std::string& name = value["transparency"].as_string();
    for (std::size_t i = 0; i < 4; ++i) {
      if (kTransparencyNames[i] == name) {
        core::TransparencyReport report;
        report.overall = static_cast<core::TransparencyClass>(i);
        record.verdict.transparency = std::move(report);
        break;
      }
    }
  }
  if (value["cpe_version_bind"].is_string()) {
    core::CpeCheckReport check;
    check.cpe.answered = true;
    check.cpe.txt = value["cpe_version_bind"].as_string();
    check.cpe.display = *check.cpe.txt;
    check.cpe_is_interceptor = value["cpe_is_interceptor"].as_bool();
    record.verdict.cpe_check = std::move(check);
  }
  if (value["bogon_answered"].is_bool()) {
    core::BogonReport bogon;
    bogon.v4.tested = true;
    if (value["bogon_answered"].as_bool())
      bogon.v4.a_query.status = core::QueryResult::Status::answered;
    record.verdict.bogon = std::move(bogon);
  }

  const Value& truth = value["truth"];
  record.truth.cpe_intercepts = truth["cpe_intercepts"].as_bool();
  record.truth.external_intercepts = truth["external_intercepts"].as_bool();
  record.truth.isp_answers_bogons = truth["isp_answers_bogons"].as_bool();
  record.truth.isp_intercepts_v4 = truth["isp_intercepts_v4"].as_bool();
  record.truth.isp_intercepts_v6 = truth["isp_intercepts_v6"].as_bool();
  if (auto expected = location_from(truth["expected"].as_string()))
    record.truth.expected = *expected;

  record.verdict.telemetry = telemetry_from_json(value["telemetry"]);
  record.drops = drops_from_json(value["drops"]);
  record.faults = faults_from_json(value["faults"]);
  return record;
}

JournalWriter::JournalWriter(const std::string& path, const JournalHeader& header,
                             std::chrono::milliseconds sync_interval)
    : sync_interval_(sync_interval) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) return;
  std::string line = header_to_json(header).dump() + "\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  sync();
}

JournalWriter::~JournalWriter() {
  netbase::MutexLock lock(mutex_);
  if (file_ != nullptr) {
    std::fflush(file_);
    if (unsynced_) fsync_journal(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
}

namespace {

// A record line is exactly {"crc":"<16 hex>","record":<journal_record_dump>}.
constexpr std::string_view kCrcPrefix = "{\"crc\":\"";
constexpr std::string_view kRecordKey = "\",\"record\":";
constexpr std::size_t kRecordOffset = kCrcPrefix.size() + 16 + kRecordKey.size();

void append_record_line(std::string& lines, const ProbeRecord& record) {
  std::string inner = journal_record_dump(record);
  lines.append(kCrcPrefix);
  lines.append(to_hex(fnv1a(inner)));
  lines.append(kRecordKey);
  lines.append(inner);
  lines.append("}\n");
}

/// The record's bytes as the writer laid them out in `line`; nullopt when the
/// line does not have the writer's shape.
std::optional<std::string_view> record_bytes(std::string_view line) {
  if (line.size() <= kRecordOffset || !line.starts_with(kCrcPrefix) ||
      line.substr(kCrcPrefix.size() + 16, kRecordKey.size()) != kRecordKey ||
      line.back() != '}')
    return std::nullopt;
  return line.substr(kRecordOffset, line.size() - kRecordOffset - 1);
}

}  // namespace

void JournalWriter::append_batch(const std::vector<const ProbeRecord*>& batch) {
  if (batch.empty()) return;
  obs::Span append_span("journal/append_batch");
  std::string lines;
  lines.reserve(batch.size() * 1400);
  for (const ProbeRecord* record : batch) append_record_line(lines, *record);
  write_lines(lines, batch.size());
}

void JournalWriter::write_lines(std::string_view lines, std::size_t records) {
  netbase::MutexLock lock(mutex_);
  if (file_ == nullptr) return;
  if (obs::metrics_enabled()) {
    static obs::Counter& journaled = obs::registry().counter("journal_records_total");
    static obs::Counter& bytes = obs::registry().counter("journal_bytes_total");
    journaled.add_always(records);
    bytes.add_always(lines.size());
  }
  std::fwrite(lines.data(), 1, lines.size(), file_);
  // Hand the batch to the OS right away: page cache survives a killed
  // process, so a crash of *this* program loses at most one partial line
  // beyond whatever the caller had not yet appended. The fsync below only
  // bounds loss on power failure / kernel panic, so it can run on a much
  // coarser, time-based cadence without weakening crash tolerance.
  std::fflush(file_);
  auto now = std::chrono::steady_clock::now();
  unsynced_ = now - last_sync_ < sync_interval_;
  if (!unsynced_) {
    fsync_journal(file_);
    last_sync_ = now;
  }
}

void JournalWriter::sync() {
  netbase::MutexLock lock(mutex_);
  if (file_ == nullptr) return;
  std::fflush(file_);
  fsync_journal(file_);
  last_sync_ = std::chrono::steady_clock::now();
  unsynced_ = false;
}

bool JournalWriter::ok() const {
  netbase::MutexLock lock(mutex_);
  return file_ != nullptr;
}

JournalLoadResult parse_journal(std::string_view text) {
  JournalLoadResult result;
  if (text.empty()) {
    result.error = "empty journal";
    return result;
  }

  std::size_t line_number = 0;
  std::size_t start = 0;
  bool saw_header = false;
  while (start < text.size()) {
    std::size_t newline = text.find('\n', start);
    bool complete = newline != std::string_view::npos;
    std::string_view line =
        complete ? text.substr(start, newline - start) : text.substr(start);
    start = complete ? newline + 1 : text.size();
    ++line_number;
    if (line.empty()) continue;

    if (!complete) {
      // A crash mid-append leaves at most one partial line, always the last.
      result.warnings.push_back("line " + std::to_string(line_number) +
                                ": truncated final line dropped");
      ++result.damaged;
      break;
    }

    jsonio::ParseError parse_error;
    auto value = jsonio::parse(line, &parse_error);
    if (!saw_header) {
      saw_header = true;
      if (!value || !value->is_object() ||
          (*value)["format"].as_string() != kFormatName) {
        result.error = "line 1: not a journal header";
        return result;
      }
      if ((*value)["version"].as_int() != kFormatVersion) {
        result.error = "line 1: unsupported journal version " +
                       std::to_string((*value)["version"].as_int());
        return result;
      }
      result.header.version =
          static_cast<std::uint32_t>((*value)["version"].as_int());
      auto fingerprint = from_hex((*value)["fingerprint"].as_string());
      if (!fingerprint) {
        result.error = "line 1: bad fingerprint";
        return result;
      }
      result.header.fingerprint = *fingerprint;
      result.header.fleet_size =
          static_cast<std::uint64_t>((*value)["fleet_size"].as_int());
      continue;
    }

    if (!value || !value->is_object()) {
      result.warnings.push_back("line " + std::to_string(line_number) +
                                ": unparseable record dropped");
      ++result.damaged;
      continue;
    }
    auto crc = from_hex((*value)["crc"].as_string());
    const Value& record_json = (*value)["record"];
    auto raw_record = record_bytes(line);
    if (!crc || !record_json.is_object() || !raw_record || fnv1a(*raw_record) != *crc) {
      result.warnings.push_back("line " + std::to_string(line_number) +
                                ": checksum mismatch, record dropped");
      ++result.damaged;
      continue;
    }
    auto record = journal_record_from_json(record_json);
    if (!record) {
      result.warnings.push_back("line " + std::to_string(line_number) +
                                ": malformed record dropped");
      ++result.damaged;
      continue;
    }
    result.records.push_back(std::move(*record));
  }

  if (!saw_header) result.error = "no journal header";
  return result;
}

JournalLoadResult load_journal(const std::string& path) {
  std::optional<std::string> text = read_file(path);
  if (!text) {
    JournalLoadResult result;
    result.error = "cannot open " + path;
    return result;
  }
  return parse_journal(*text);
}

JournalJoin join_journal(const std::string& path, const std::vector<ProbeSpec>& fleet) {
  JournalJoin out;
  out.slots.resize(fleet.size());
  auto loaded = load_journal(path);
  out.damaged = loaded.damaged;
  out.warnings = std::move(loaded.warnings);
  if (!loaded.ok()) {
    out.warnings.push_back("journal unusable (" + loaded.error + ")");
    return out;
  }
  if (loaded.header.fingerprint != fleet_fingerprint(fleet) ||
      loaded.header.fleet_size != fleet.size()) {
    out.warnings.push_back(
        "journal fingerprint does not match this fleet "
        "(different seed, scale, or configuration); ignoring " +
        std::to_string(loaded.records.size()) + " journaled records");
    return out;
  }
  out.matched = true;
  std::unordered_map<std::uint32_t, std::size_t> index_of;
  index_of.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) index_of[fleet[i].probe_id] = i;
  for (auto& record : loaded.records) {
    auto it = index_of.find(record.probe_id);
    if (it == index_of.end()) {
      out.warnings.push_back("journaled probe " + std::to_string(record.probe_id) +
                             " is not in the fleet; dropped");
      continue;
    }
    // Last record wins if a probe was journaled twice (rewrite + append).
    out.slots[it->second] = std::move(record);
  }
  return out;
}

}  // namespace dnslocate::atlas
