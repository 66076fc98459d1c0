#include "service/service.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "atlas/fleet_json.h"
#include "atlas/journal.h"
#include "netbase/arena.h"
#include "report/aggregate.h"
#include "report/results_io.h"

namespace dnslocate::service {

namespace fs = std::filesystem;

namespace {

/// Read a whole file; nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string text;
  char buffer[16 * 1024];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) text.append(buffer, got);
  std::fclose(file);
  return text;
}

/// Write a file and fsync it — durability before the caller proceeds. The
/// manifest/done markers go through here so an admitted or finalized run
/// survives an immediate crash.
bool write_file_sync(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  ok = std::fflush(file) == 0 && ok;
  if (ok) ok = fsync(fileno(file)) == 0;
  return std::fclose(file) == 0 && ok;
}

/// Final census as the status endpoint's JSON. The telemetry block mirrors
/// the registry's transport_* counters field for field, so a scrape of
/// /metrics and this census agree to the digit (asserted in
/// tests/test_service.cc).
jsonio::Value census_to_json(const report::RunCensus& census) {
  jsonio::Object telemetry;
  telemetry["queries"] = census.telemetry.queries;
  telemetry["attempts"] = census.telemetry.attempts;
  telemetry["retries"] = census.telemetry.retries;
  telemetry["timeouts"] = census.telemetry.timeouts;
  telemetry["answered"] = census.telemetry.answered;

  jsonio::Object out;
  out["probes"] = static_cast<std::uint64_t>(census.probes);
  out["ok"] = static_cast<std::uint64_t>(census.ok);
  out["failed"] = static_cast<std::uint64_t>(census.failed);
  out["deadline_exceeded"] = static_cast<std::uint64_t>(census.deadline_exceeded);
  out["partial_verdicts"] = static_cast<std::uint64_t>(census.partial_verdicts);
  out["not_run"] = static_cast<std::uint64_t>(census.not_run);
  out["telemetry"] = jsonio::Value(std::move(telemetry));
  return jsonio::Value(std::move(out));
}

bool valid_tenant(std::string_view tenant) {
  if (tenant.empty() || tenant.size() > 64) return false;
  for (char c : tenant) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

bool terminal(RunState state) {
  return state == RunState::completed || state == RunState::cancelled ||
         state == RunState::failed;
}

std::optional<RunState> run_state_from(std::string_view name) {
  if (name == "queued") return RunState::queued;
  if (name == "running") return RunState::running;
  if (name == "completed") return RunState::completed;
  if (name == "cancelled") return RunState::cancelled;
  if (name == "failed") return RunState::failed;
  return std::nullopt;
}

}  // namespace

std::string_view to_string(RunState state) {
  switch (state) {
    case RunState::queued: return "queued";
    case RunState::running: return "running";
    case RunState::completed: return "completed";
    case RunState::cancelled: return "cancelled";
    case RunState::failed: return "failed";
  }
  return "unknown";
}

/// Internal run state. The service mutex guards the registry/queue; each
/// run's own mutex guards everything below it, so verdict publication (the
/// fleet's hot path) never contends with unrelated runs. Declared lock
/// order: MeasurementService::mutex_ before any Run::mutex
/// (tools/dnslint/lock_order.txt); the capability annotations make the
/// guard assignments checkable under -Werror=thread-safety.
struct MeasurementService::Run {
  // Immutable once the run is published in runs_ (set during admission /
  // recovery under `mutex` before any other thread can see the Run).
  std::string id;
  std::string tenant;
  std::string plan_json;  // fleet plan document (regenerates the fleet)
  std::chrono::milliseconds pace{0};
  bool recovered = false;          // re-queued for resumption at startup
  std::string manifest_path;
  std::string journal_path;
  std::string done_path;
  core::CancelToken cancel = core::CancelToken::manual();

  mutable netbase::Mutex mutex;
  RunState state DNSLOCATE_GUARDED_BY(mutex) = RunState::queued;
  bool user_cancelled DNSLOCATE_GUARDED_BY(mutex) = false;
  bool stream_finished DNSLOCATE_GUARDED_BY(mutex) = false;
  /// `lines` holds every published record. False for a run finished by a
  /// previous process or spilled by retention, until a reader reloads the
  /// lines from the journal (ensure_lines_resident).
  bool lines_resident DNSLOCATE_GUARDED_BY(mutex) = true;
  /// The done marker has been written, so the journal holds every record
  /// the run will have and retention may spill `lines`. Set before the
  /// terminal state is published.
  bool done_durable DNSLOCATE_GUARDED_BY(mutex) = false;
  std::size_t probes_total DNSLOCATE_GUARDED_BY(mutex) = 0;
  /// Records published (== verdict seq), counted live or read from the done
  /// marker; spills and reloads leave it alone.
  std::size_t probes_done DNSLOCATE_GUARDED_BY(mutex) = 0;
  std::size_t not_run DNSLOCATE_GUARDED_BY(mutex) = 0;
  /// The run's one record store: each published record's export line
  /// (report::probe_to_json) at its fleet position, "" until published, and
  /// the positions in publication order. /verdicts reads the lines in
  /// publication order, /records in fleet order.
  std::vector<std::string> lines DNSLOCATE_GUARDED_BY(mutex);
  std::vector<std::size_t> published DNSLOCATE_GUARDED_BY(mutex);
  std::string error DNSLOCATE_GUARDED_BY(mutex);
  jsonio::Value census DNSLOCATE_GUARDED_BY(mutex);  // null until terminal
};

MeasurementService::MeasurementService(ServiceConfig config) : config_(std::move(config)) {
  if (config_.state_dir.empty())
    throw std::runtime_error("MeasurementService: state_dir is required");
  std::error_code ec;
  fs::create_directories(config_.state_dir, ec);
  if (ec && !fs::is_directory(config_.state_dir))
    throw std::runtime_error("MeasurementService: cannot create state dir " + config_.state_dir);
  recover_state_dir();
}

MeasurementService::~MeasurementService() { drain(); }

void MeasurementService::recover_state_dir() {
  // Startup is single-threaded (workers spawn at the end, and only if runs
  // were re-queued), but the registry fields are capability-guarded, so take
  // the locks anyway: they are uncontended, and the analysis then needs no
  // startup special case.
  netbase::MutexLock lock(mutex_);
  std::vector<std::shared_ptr<Run>> pending;
  for (const auto& entry : fs::directory_iterator(config_.state_dir)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kSuffix = ".manifest.json";
    if (name.size() <= kSuffix.size() ||
        name.substr(name.size() - kSuffix.size()) != kSuffix)
      continue;
    auto text = read_file(entry.path().string());
    if (!text) continue;
    auto manifest = jsonio::parse(*text);
    if (!manifest) continue;  // a torn manifest means admission never finished
    const std::string id = (*manifest)["id"].as_string();
    if (id.substr(0, 4) != "run-") continue;
    std::uint64_t number = std::strtoull(id.c_str() + 4, nullptr, 10);
    next_run_number_ = std::max(next_run_number_, number + 1);

    auto run = std::make_shared<Run>();
    run->id = id;
    run->tenant = (*manifest)["tenant"].as_string();
    if (run->tenant.empty()) run->tenant = "default";
    run->plan_json = (*manifest)["plan"].dump();
    run->pace = std::chrono::milliseconds((*manifest)["pace_ms"].as_int(0));
    run->manifest_path = entry.path().string();
    const std::string base = config_.state_dir + "/" + id;
    run->journal_path = base + ".journal";
    run->done_path = base + ".done";

    netbase::MutexLock run_lock(run->mutex);
    run->probes_total = static_cast<std::size_t>((*manifest)["probes_total"].as_int(0));
    if (fs::exists(run->done_path)) {
      // Finished by a previous process: status comes from the marker,
      // records lazily from the journal (ensure_lines_resident).
      run->lines_resident = false;
      run->done_durable = true;
      run->stream_finished = true;
      run->state = RunState::completed;
      if (auto done_text = read_file(run->done_path)) {
        if (auto done = jsonio::parse(*done_text)) {
          if (auto state = run_state_from((*done)["state"].as_string())) run->state = *state;
          run->census = (*done)["census"];
          run->error = (*done)["error"].as_string();
          run->probes_done = static_cast<std::size_t>((*done)["probes_done"].as_int(0));
          run->not_run = static_cast<std::size_t>((*done)["not_run"].as_int(0));
        }
      }
    } else {
      // Manifest without a done marker: the previous process died (or was
      // drained) mid-run. Resume it.
      run->recovered = true;
      run->state = RunState::queued;
      pending.push_back(run);
    }
    runs_[id] = std::move(run);
  }
  std::sort(pending.begin(), pending.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  recovered_runs_ = pending.size();
  for (auto& run : pending) queue_.push_back(std::move(run));
  if (!queue_.empty()) start_workers();
}

void MeasurementService::start_workers() {
  if (!workers_.empty() || draining_.load(std::memory_order_relaxed)) return;
  unsigned workers = std::max(1u, config_.workers);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

SubmitResult MeasurementService::submit(const std::string& body) {
  SubmitResult out;
  if (draining_.load(std::memory_order_relaxed)) {
    out.status = 503;
    out.error = "service is draining; resubmit after restart";
    return out;
  }

  jsonio::ParseError parse_error;
  auto parsed = jsonio::parse(body, &parse_error);
  if (!parsed) {
    out.status = 400;
    out.error = "invalid JSON: " + jsonio::describe(parse_error);
    jsonio::Object detail;
    detail["offset"] = static_cast<std::uint64_t>(parse_error.offset);
    detail["line"] = static_cast<std::uint64_t>(parse_error.line);
    detail["column"] = static_cast<std::uint64_t>(parse_error.column);
    detail["context"] = parse_error.context;
    out.detail = jsonio::Value(std::move(detail));
    return out;
  }

  auto plan = atlas::fleet_from_json(body);
  if (!plan.ok()) {
    out.status = 400;
    out.error = "invalid fleet plan";
    jsonio::Array errors;
    for (const auto& message : plan.errors) errors.emplace_back(message);
    jsonio::Object detail;
    detail["errors"] = jsonio::Value(std::move(errors));
    out.detail = jsonio::Value(std::move(detail));
    return out;
  }
  const auto fleet = plan.generate();
  if (fleet.empty()) {
    out.status = 400;
    out.error = "fleet plan generates no probes";
    return out;
  }
  if (fleet.size() > config_.max_probes) {
    out.status = 413;
    out.error = "fleet of " + std::to_string(fleet.size()) + " probes exceeds the cap of " +
                std::to_string(config_.max_probes);
    return out;
  }

  std::string tenant = (*parsed)["tenant"].as_string();
  if (tenant.empty()) tenant = "default";
  if (!valid_tenant(tenant)) {
    out.status = 400;
    out.error = "tenant must be 1-64 chars of [A-Za-z0-9_-]";
    return out;
  }
  const std::int64_t pace_ms = (*parsed)["pace_ms"].as_int(0);
  if (pace_ms < 0 || pace_ms > 60000) {
    out.status = 400;
    out.error = "pace_ms must be in [0, 60000]";
    return out;
  }

  // Admission critical section: cap check + id reservation only. The
  // manifest write (fwrite + fsync, milliseconds of disk latency) happens
  // *outside* mutex_ so status/list/verdict calls never stall behind it;
  // admitting_ counts the reservation so a concurrent submit for the same
  // tenant still sees the slot as taken.
  char id_buffer[24];
  {
    netbase::MutexLock lock(mutex_);
    if (draining_.load(std::memory_order_relaxed)) {
      out.status = 503;
      out.error = "service is draining; resubmit after restart";
      return out;
    }
    auto admitting_it = admitting_.find(tenant);
    std::size_t active = admitting_it == admitting_.end() ? 0 : admitting_it->second;
    for (const auto& [id, run] : runs_) {
      if (run->tenant != tenant) continue;  // tenant is immutable: no run lock
      netbase::MutexLock run_lock(run->mutex);
      if (run->state == RunState::queued || run->state == RunState::running) ++active;
    }
    if (active >= config_.tenant_cap) {
      out.status = 429;
      out.error = "tenant '" + tenant + "' already has " + std::to_string(active) +
                  " active runs (cap " + std::to_string(config_.tenant_cap) + ")";
      return out;
    }
    std::snprintf(id_buffer, sizeof id_buffer, "run-%06llu",
                  static_cast<unsigned long long>(next_run_number_++));
    ++admitting_[tenant];
  }
  auto release_admission = [this, &tenant] {
    netbase::MutexLock lock(mutex_);
    auto it = admitting_.find(tenant);
    if (it != admitting_.end() && --it->second == 0) admitting_.erase(it);
  };

  auto run = std::make_shared<Run>();
  run->id = id_buffer;
  run->tenant = tenant;
  run->plan_json = (*parsed).dump();
  run->pace = std::chrono::milliseconds(pace_ms);
  {
    // No other thread can see the Run yet; the lock is uncontended and
    // exists so the capability analysis sees the guarded write.
    netbase::MutexLock run_lock(run->mutex);
    run->probes_total = fleet.size();
  }
  const std::string base = config_.state_dir + "/" + run->id;
  run->manifest_path = base + ".manifest.json";
  run->journal_path = base + ".journal";
  run->done_path = base + ".done";

  jsonio::Object manifest;
  manifest["format"] = "dnslocate-manifest";
  manifest["id"] = run->id;
  manifest["tenant"] = tenant;
  manifest["pace_ms"] = static_cast<std::int64_t>(pace_ms);
  manifest["probes_total"] = static_cast<std::uint64_t>(fleet.size());
  manifest["plan"] = *parsed;
  if (!write_file_sync(run->manifest_path, jsonio::Value(std::move(manifest)).dump() + "\n")) {
    release_admission();
    out.status = 500;
    out.error = "cannot persist run manifest in " + config_.state_dir;
    return out;
  }

  out.id = run->id;
  {
    netbase::MutexLock lock(mutex_);
    auto it = admitting_.find(tenant);
    if (it != admitting_.end() && --it->second == 0) admitting_.erase(it);
    runs_[run->id] = run;
    if (draining_.load(std::memory_order_relaxed)) {
      // Drain won the race between reservation and registration: the
      // manifest is durable, so the next start resumes this run; close its
      // stream now because no worker in this process will touch it.
      netbase::MutexLock run_lock(run->mutex);
      run->stream_finished = true;
    } else {
      queue_.push_back(std::move(run));
      start_workers();
    }
  }
  work_ready_.notify_one();
  return out;
}

void MeasurementService::worker_loop() {
  // One-shard runs execute inline on this thread, so it owns the arena their
  // packet buffers park in: a thread's fallback arena is leaked at exit
  // (netbase/arena.h).
  netbase::ByteArena arena;
  netbase::ScopedArena scoped(arena);
  for (;;) {
    std::shared_ptr<Run> run;
    {
      netbase::MutexLock lock(mutex_);
      // An explicit predicate loop (not the wait(lock, pred) overload):
      // the predicate reads queue_, and inside a lambda the analysis could
      // not see that mutex_ is held across the wait.
      while (!draining_.load(std::memory_order_relaxed) && queue_.empty())
        work_ready_.wait(lock.native());
      // On drain, leave queued runs untouched: their manifests carry no
      // done marker, so the next start resumes them.
      if (draining_.load(std::memory_order_relaxed)) return;
      run = queue_.front();
      queue_.pop_front();
    }
    execute(run);
  }
}

void MeasurementService::execute(const std::shared_ptr<Run>& run) {
  {
    netbase::MutexLock lock(run->mutex);
    run->state = RunState::running;
  }

  atlas::MeasurementRun measured;
  try {
    auto plan = atlas::fleet_from_json(run->plan_json);
    if (!plan.ok()) throw std::runtime_error("manifest plan no longer parses: " + plan.errors[0]);
    const auto fleet = plan.generate();
    {
      netbase::MutexLock lock(run->mutex);
      run->probes_total = fleet.size();
      run->lines.resize(fleet.size());
    }
    std::unordered_map<std::uint32_t, std::size_t> position;  // probe id -> fleet index
    position.reserve(fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) position[fleet[i].probe_id] = i;

    atlas::MeasurementOptions options;
    options.strip_raw_responses = true;
    options.shards = std::max(1u, config_.run_threads);
    options.probe_deadline = config_.probe_deadline;
    options.journal_path = run->journal_path;
    options.cancel = run->cancel;
    options.on_record = [run, &position](const atlas::ProbeRecord& record) {
      std::string line = report::probe_to_json(record);
      const std::size_t at = position.at(record.probe_id);
      netbase::MutexLock lock(run->mutex);
      run->lines[at] = std::move(line);
      run->published.push_back(at);
      ++run->probes_done;
    };
    if (run->pace.count() > 0) {
      // Pacing spreads a simulated fleet over wall-clock time (drain and
      // kill-mid-run testing). The sleep is cancel-aware so a drain is
      // never stuck behind it.
      const auto pace = run->pace;
      const auto drain_token = run->cancel;
      options.runner = [pace, drain_token](const atlas::ProbeSpec& spec,
                                           const core::CancelToken& token) {
        std::chrono::milliseconds waited{0};
        while (waited < pace && !token.cancelled() && !drain_token.cancelled()) {
          const auto slice = std::min(pace - waited, std::chrono::milliseconds(5));
          std::this_thread::sleep_for(slice);
          waited += slice;
        }
        return atlas::run_probe(spec, token, /*strip_raw_responses=*/true);
      };
    }

    if (run->recovered) {
      atlas::ResumeReport report;
      measured = atlas::resume_fleet(run->journal_path, fleet, options, &report);
    } else {
      measured = atlas::run_fleet(fleet, options);
    }
  } catch (const std::exception& e) {
    {
      netbase::MutexLock lock(run->mutex);
      run->error = e.what();
    }
    finalize(run, RunState::failed, nullptr);
    return;
  }

  bool user_cancelled = false;
  {
    netbase::MutexLock lock(run->mutex);
    run->not_run = measured.not_run;
    user_cancelled = run->user_cancelled;
  }
  if (user_cancelled) {
    finalize(run, RunState::cancelled, &measured);
    return;
  }
  if (draining_.load(std::memory_order_relaxed) && measured.stopped_early()) {
    // Interrupted by process drain, not by the operator: keep the manifest
    // un-marked so the next start resumes this run where the journal ends.
    netbase::MutexLock lock(run->mutex);
    run->stream_finished = true;
    return;
  }
  finalize(run, RunState::completed, &measured);
}

void MeasurementService::finalize(const std::shared_ptr<Run>& run, RunState state,
                                  const atlas::MeasurementRun* measured) {
  jsonio::Object done;
  done["format"] = "dnslocate-done";
  done["id"] = run->id;
  done["state"] = std::string(to_string(state));
  {
    netbase::MutexLock lock(run->mutex);
    if (measured != nullptr) run->census = census_to_json(report::run_census(*measured));
    if (!run->error.empty()) done["error"] = run->error;
    done["census"] = run->census;
    done["probes_done"] = static_cast<std::uint64_t>(run->probes_done);
    done["not_run"] = static_cast<std::uint64_t>(run->not_run);
  }
  // The marker is durable, and older runs are spilled, before any reader can
  // see the terminal state: a crash after a client saw the run finish must
  // not resume it. This run sits at the back of the retention order, so its
  // own spill pass never picks it.
  write_file_sync(run->done_path, jsonio::Value(std::move(done)).dump() + "\n");
  {
    netbase::MutexLock lock(run->mutex);
    run->done_durable = true;
  }
  note_terminal_resident(run->id);
  netbase::MutexLock lock(run->mutex);
  run->state = state;
  run->stream_finished = true;
}

void MeasurementService::note_terminal_resident(const std::string& id) {
  std::vector<std::shared_ptr<Run>> victims;
  {
    netbase::MutexLock lock(mutex_);
    std::erase(terminal_order_, id);  // refresh: most recent goes to the back
    terminal_order_.push_back(id);
    while (terminal_order_.size() > std::max<std::size_t>(1, config_.retain_terminal_runs)) {
      auto it = runs_.find(terminal_order_.front());
      terminal_order_.pop_front();
      if (it != runs_.end()) victims.push_back(it->second);
    }
  }
  // Spill outside mutex_: the victims' records are durable (journal + done
  // marker), so drop the lines and flip them to the lazy-reload path a
  // historical run already takes.
  for (const auto& victim : victims) {
    netbase::MutexLock run_lock(victim->mutex);
    // A run another finalize has just listed is spillable once its marker
    // is durable, published or not; a resubmit of the same id never is.
    if (!victim->done_durable) continue;
    victim->lines = {};
    victim->published = {};
    victim->lines_resident = false;
  }
}

std::shared_ptr<MeasurementService::Run> MeasurementService::find(const std::string& id) const {
  netbase::MutexLock lock(mutex_);
  auto it = runs_.find(id);
  return it == runs_.end() ? nullptr : it->second;
}

RunStatus MeasurementService::snapshot(const Run& run) const {
  netbase::MutexLock lock(run.mutex);
  RunStatus status;
  status.id = run.id;
  status.tenant = run.tenant;
  status.state = run.state;
  status.recovered = run.recovered;
  status.probes_total = run.probes_total;
  status.probes_done = run.probes_done;
  status.not_run = run.not_run;
  status.error = run.error;
  status.census = run.census;
  return status;
}

std::optional<RunStatus> MeasurementService::status(const std::string& id) const {
  auto run = find(id);
  if (!run) return std::nullopt;
  return snapshot(*run);
}

std::vector<RunStatus> MeasurementService::list() const {
  std::vector<std::shared_ptr<Run>> all;
  {
    netbase::MutexLock lock(mutex_);
    all.reserve(runs_.size());
    for (const auto& [id, run] : runs_) all.push_back(run);
  }
  std::vector<RunStatus> out;
  out.reserve(all.size());
  for (const auto& run : all) out.push_back(snapshot(*run));
  return out;
}

bool MeasurementService::cancel(const std::string& id) {
  auto run = find(id);
  if (!run) return false;
  {
    netbase::MutexLock lock(run->mutex);
    if (terminal(run->state)) return true;  // already terminal: cancel is idempotent
    run->user_cancelled = true;
  }
  run->cancel.cancel();
  return true;
}

void MeasurementService::ensure_lines_resident(Run& run) {
  {
    netbase::MutexLock lock(run.mutex);
    if (run.lines_resident) return;
    run.lines_resident = true;
    // Rebuild the fleet from the manifest plan and join the journal to it:
    // the lines come back in fleet order, and a journal whose header does
    // not match the plan yields none.
    auto plan = atlas::fleet_from_json(run.plan_json);
    if (plan.ok()) {
      auto joined = atlas::join_journal(run.journal_path, plan.generate());
      run.lines.resize(joined.slots.size());
      for (std::size_t i = 0; i < joined.slots.size(); ++i) {
        if (!joined.slots[i]) continue;
        run.lines[i] = report::probe_to_json(*joined.slots[i]);
        run.published.push_back(i);
      }
    }
  }
  // Reloaded lines are resident again: re-enter the retention order (with
  // no lock held — note_terminal_resident takes mutex_ then run mutexes).
  note_terminal_resident(run.id);
}

std::optional<VerdictPage> MeasurementService::verdicts(const std::string& id,
                                                        std::size_t from_seq) {
  auto run = find(id);
  if (!run) return std::nullopt;
  ensure_lines_resident(*run);
  netbase::MutexLock lock(run->mutex);
  VerdictPage page;
  for (std::size_t seq = from_seq; seq < run->published.size(); ++seq)
    page.lines.push_back(run->lines[run->published[seq]]);
  page.next_seq = run->published.size();
  page.finished = run->stream_finished;
  return page;
}

std::optional<std::string> MeasurementService::records_jsonl(const std::string& id) {
  auto run = find(id);
  if (!run) return std::nullopt;
  ensure_lines_resident(*run);
  netbase::MutexLock lock(run->mutex);
  if (!terminal(run->state)) return std::nullopt;
  std::string out;
  for (const std::string& line : run->lines)
    if (!line.empty()) out.append(line).push_back('\n');
  return out;
}

bool MeasurementService::draining() const {
  return draining_.load(std::memory_order_relaxed);
}

void MeasurementService::drain() {
  // Once draining_ is set under mutex_, start_workers() spawns nothing, so
  // the pool swapped out here is the last one.
  std::vector<std::thread> workers;
  {
    netbase::MutexLock lock(mutex_);
    draining_.store(true);
    for (const auto& [id, run] : runs_) {
      netbase::MutexLock run_lock(run->mutex);
      if (run->state == RunState::queued || run->state == RunState::running)
        run->cancel.cancel();
    }
    workers.swap(workers_);
  }
  work_ready_.notify_all();
  for (auto& worker : workers) worker.join();
  // Runs still queued were never started: close their streams so a client
  // polling the verdict endpoint sees the end of the stream.
  netbase::MutexLock lock(mutex_);
  for (const auto& [id, run] : runs_) {
    netbase::MutexLock run_lock(run->mutex);
    if (run->state == RunState::queued) run->stream_finished = true;
  }
}

}  // namespace dnslocate::service
