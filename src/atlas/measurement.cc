#include "atlas/measurement.h"

#include <atomic>
#include <memory>
#include <thread>

#include "atlas/journal.h"
#include "atlas/sharding.h"
#include "core/sim_transport.h"
#include "netbase/arena.h"
#include "netbase/thread_annotations.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace dnslocate::atlas {
namespace {

/// Mirror a completed probe's drop and fault counters into the metrics
/// registry. This is the single seam through which simulated-network drops
/// reach the registry, so registry totals agree exactly with the sums the
/// census computes from the same per-record structs.
void note_probe_metrics(const ProbeRecord& record) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& no_route = obs::registry().counter("sim_drop_no_route_total");
  static obs::Counter& ttl_expired = obs::registry().counter("sim_drop_ttl_expired_total");
  static obs::Counter& no_listener = obs::registry().counter("sim_drop_no_listener_total");
  static obs::Counter& by_hook = obs::registry().counter("sim_drop_by_hook_total");
  static obs::Counter& link_loss = obs::registry().counter("sim_drop_link_loss_total");
  static obs::Counter& queue_overflow =
      obs::registry().counter("sim_drop_queue_overflow_total");
  static obs::Counter& fault_burst = obs::registry().counter("sim_drop_fault_burst_total");
  static obs::Counter& fault_random = obs::registry().counter("sim_drop_fault_random_total");
  no_route.add_always(record.drops.no_route);
  ttl_expired.add_always(record.drops.ttl_expired);
  no_listener.add_always(record.drops.no_listener);
  by_hook.add_always(record.drops.by_hook);
  link_loss.add_always(record.drops.link_loss);
  queue_overflow.add_always(record.drops.queue_overflow);
  fault_burst.add_always(record.drops.fault_burst);
  fault_random.add_always(record.drops.fault_random);

  static obs::Counter& f_burst = obs::registry().counter("fault_burst_drops_total");
  static obs::Counter& f_random = obs::registry().counter("fault_random_drops_total");
  static obs::Counter& f_reordered = obs::registry().counter("fault_reordered_total");
  static obs::Counter& f_duplicated = obs::registry().counter("fault_duplicated_total");
  static obs::Counter& f_truncated = obs::registry().counter("fault_truncated_total");
  static obs::Counter& f_jittered = obs::registry().counter("fault_jittered_total");
  f_burst.add_always(record.faults.burst_drops);
  f_random.add_always(record.faults.random_drops);
  f_reordered.add_always(record.faults.reordered);
  f_duplicated.add_always(record.faults.duplicated);
  f_truncated.add_always(record.faults.truncated);
  f_jittered.add_always(record.faults.jittered);
}

void strip_result(core::QueryResult& result) {
  result.all_responses.clear();
  result.all_responses.shrink_to_fit();
}

void strip_verdict(core::ProbeVerdict& verdict) {
  for (auto& probe : verdict.detection.probes) strip_result(probe.result);
  if (verdict.bogon) {
    strip_result(verdict.bogon->v4.a_query);
    strip_result(verdict.bogon->v4.version_query);
    strip_result(verdict.bogon->v6.a_query);
    strip_result(verdict.bogon->v6.version_query);
  }
}

/// Run one probe under supervision: a cancellation token enforcing the
/// wall-clock budget, and a try/catch turning escaped exceptions into a
/// failed record instead of std::terminate in a worker thread.
ProbeRecord supervised_run(const ProbeSpec& spec, const MeasurementOptions& options) {
  auto start = std::chrono::steady_clock::now();
  core::CancelToken token =
      options.probe_deadline.count() > 0
          ? core::CancelToken::with_deadline(start + options.probe_deadline)
          : core::CancelToken{};
  ProbeRecord record;
  try {
    record = options.runner
                 ? options.runner(spec, token)
                 : run_probe(spec, token, options.strip_raw_responses);
    record.outcome = ProbeOutcome::ok;
  } catch (const std::exception& e) {
    record = ProbeRecord{};
    record.outcome = ProbeOutcome::failed;
    record.error = e.what();
  } catch (...) {
    record = ProbeRecord{};
    record.outcome = ProbeOutcome::failed;
    record.error = "unknown exception";
  }
  // Identity fields survive even when the probe never got to fill them.
  record.probe_id = spec.probe_id;
  record.org = spec.org;
  record.tested_v6 = spec.scenario.home_ipv6;
  if (record.outcome == ProbeOutcome::ok && token.deadline_exceeded()) {
    // Budget blown: completed stages are kept (the verdict is partial, per
    // the pipeline's skip flags) but the probe is accounted as over
    // deadline — graceful degradation, never a fabricated verdict.
    record.outcome = ProbeOutcome::deadline_exceeded;
    record.error = "probe exceeded its deadline of " +
                   std::to_string(options.probe_deadline.count()) + "ms";
  }
  record.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  if (obs::metrics_enabled()) {
    static obs::Counter& ok = obs::registry().counter("probe_ok_total");
    static obs::Counter& failed = obs::registry().counter("probe_failed_total");
    static obs::Counter& deadline = obs::registry().counter("probe_deadline_total");
    static obs::Counter& partial = obs::registry().counter("probe_partial_total");
    static obs::Histogram& wall = obs::registry().histogram("probe_wall_us");
    switch (record.outcome) {
      case ProbeOutcome::ok: ok.add_always(1); break;
      case ProbeOutcome::failed: failed.add_always(1); break;
      case ProbeOutcome::deadline_exceeded: deadline.add_always(1); break;
    }
    if (record.verdict.skipped_stages != 0) partial.add_always(1);
    wall.record_always(static_cast<std::uint64_t>(record.elapsed.count()));
  }
  return record;
}

/// Shared implementation of run_fleet and resume_fleet. `records` holds one
/// slot per fleet probe (or none at all, for a fresh run): a filled slot is
/// a record restored from a journal, and that probe is not re-executed.
MeasurementRun run_fleet_supervised(const std::vector<ProbeSpec>& fleet,
                                    const MeasurementOptions& options,
                                    std::vector<std::optional<ProbeRecord>> records) {
  records.resize(fleet.size());

  std::unique_ptr<JournalWriter> journal;
  if (!options.journal_path.empty()) {
    JournalHeader header;
    header.fingerprint = fleet_fingerprint(fleet);
    header.fleet_size = fleet.size();
    journal = std::make_unique<JournalWriter>(options.journal_path, header,
                                              options.journal_sync_interval);
    // Re-journal the reused records so the journal stays self-contained and
    // a resumed run can itself be resumed.
    std::vector<const ProbeRecord*> reused;
    for (const auto& record : records)
      if (record) reused.push_back(&*record);
    journal->append_batch(reused);
  }

  // Replay restored records to the observer before any fresh probe runs:
  // subscribers (the service's record store) see every record of the run
  // exactly once, journal-restored ones first in fleet order.
  if (options.on_record != nullptr)
    for (const auto& record : records)
      if (record) options.on_record(*record);

  // `threads` is the alias of `shards` (see MeasurementOptions).
  unsigned shards = options.shards != 1 ? options.shards : options.threads;
  if (shards == 0) shards = std::max(1u, std::thread::hardware_concurrency());
  shards = std::min<unsigned>(shards,
                              static_cast<unsigned>(std::max<std::size_t>(1, fleet.size())));

  // Completed records are serialized to the journal in small batches rather
  // than one by one: each probe evicts the serializer's working set from
  // cache, so per-record appends pay a cold-start an order of magnitude
  // above the serializer's steady-state cost. Batching keeps checkpointing
  // in the noise while a crash still loses at most the last batch.
  constexpr std::size_t kJournalBatch = 32;

  std::atomic<std::size_t> failures{0};
  std::atomic<bool> stop{false};
  netbase::Mutex observer_mutex;

  // One shard: its probes in fleet order, checkpointed into the journal. Every
  // probe owns its simulator, seeded from its own ScenarioConfig, so the
  // shard decides only *where* a probe executes, never *how*: records are
  // byte-identical at any shard count.
  auto run_shard = [&](const std::vector<std::size_t>& part) {
    std::vector<const ProbeRecord*> batch;
    for (std::size_t i : part) {
      if (stop.load(std::memory_order_relaxed) || options.cancel.cancelled()) break;
      if (records[i]) continue;  // restored from the journal
      const ProbeRecord& record = records[i].emplace(supervised_run(fleet[i], options));
      if (journal) {
        batch.push_back(&record);
        if (batch.size() >= kJournalBatch) {
          journal->append_batch(batch);
          batch.clear();
        }
      }
      if (record.outcome != ProbeOutcome::ok && options.max_failures > 0 &&
          failures.fetch_add(1) + 1 >= options.max_failures)
        stop.store(true, std::memory_order_relaxed);
      if (options.on_record) {
        netbase::MutexLock lock(observer_mutex);
        options.on_record(record);
      }
    }
    if (journal) journal->append_batch(batch);
  };

  std::vector<std::vector<std::size_t>> parts = partition_fleet(fleet, shards);
  if (shards == 1) {
    // Inline on the calling thread, with the caller's arena.
    run_shard(parts[0]);
  } else {
    // One thread per shard (atlas/sharding.h), each owning a byte arena, so
    // the blocks its probes park return to the heap when the shard ends.
    // Every shard appends to the run's one journal writer.
    std::vector<std::thread> workers;
    workers.reserve(shards);
    for (unsigned shard = 0; shard < shards; ++shard) {
      workers.emplace_back([&, shard] {
        netbase::ByteArena arena;
        netbase::ScopedArena scoped(arena);
        run_shard(parts[shard]);
      });
    }
    for (auto& worker : workers) worker.join();
  }

  if (journal) journal->sync();

  MeasurementRun run;
  run.records.reserve(fleet.size());
  for (auto& record : records) {
    if (record)
      run.records.push_back(std::move(*record));
    else
      ++run.not_run;
  }
  return run;
}

}  // namespace

std::string_view to_string(ProbeOutcome outcome) {
  switch (outcome) {
    case ProbeOutcome::ok: return "ok";
    case ProbeOutcome::failed: return "failed";
    case ProbeOutcome::deadline_exceeded: return "deadline_exceeded";
  }
  return "ok";
}

std::optional<ProbeOutcome> probe_outcome_from(std::string_view name) {
  if (name == "ok") return ProbeOutcome::ok;
  if (name == "failed") return ProbeOutcome::failed;
  if (name == "deadline_exceeded") return ProbeOutcome::deadline_exceeded;
  return std::nullopt;
}

std::size_t MeasurementRun::intercepted_count() const {
  std::size_t count = 0;
  for (const auto& record : records)
    if (record.verdict.intercepted()) ++count;
  return count;
}

std::size_t MeasurementRun::count_location(core::InterceptorLocation location) const {
  std::size_t count = 0;
  for (const auto& record : records)
    if (record.verdict.location == location) ++count;
  return count;
}

std::size_t MeasurementRun::count_outcome(ProbeOutcome outcome) const {
  std::size_t count = 0;
  for (const auto& record : records)
    if (record.outcome == outcome) ++count;
  return count;
}

ProbeRecord run_probe(const ProbeSpec& spec, bool strip_raw_responses) {
  return run_probe(spec, core::CancelToken{}, strip_raw_responses);
}

ProbeRecord run_probe(const ProbeSpec& spec, const core::CancelToken& cancel,
                      bool strip_raw_responses) {
  ProbeRecord record;
  record.probe_id = spec.probe_id;
  record.org = spec.org;
  record.tested_v6 = spec.scenario.home_ipv6;
  record.truth = GroundTruth{};

  Scenario scenario(spec.scenario);
  // Everything inside this probe reads simulated time and is attributed to
  // this probe id: spans land in the per-probe trace lane, deterministically.
  core::SimulatorClock clock(scenario.sim());
  obs::ScopedClock clock_scope(&clock);
  obs::ScopedProbe probe_scope(spec.probe_id);
  obs::Span probe_span("probe/run");
  record.truth = scenario.ground_truth();
  core::LocalizationPipeline pipeline(scenario.pipeline_config());
  record.verdict = pipeline.run(scenario.transport(), cancel);
  record.drops = scenario.sim().drops();
  record.faults = scenario.fault_plan().counters();
  note_probe_metrics(record);
  if (strip_raw_responses) strip_verdict(record.verdict);
  return record;
}

MeasurementRun run_fleet(const std::vector<ProbeSpec>& fleet,
                         const MeasurementOptions& options) {
  return run_fleet_supervised(fleet, options, {});
}

MeasurementRun resume_fleet(const std::string& journal_path,
                            const std::vector<ProbeSpec>& fleet,
                            const MeasurementOptions& options, ResumeReport* report) {
  ResumeReport local;
  ResumeReport& out = report != nullptr ? *report : local;
  out = ResumeReport{};

  MeasurementOptions resumed = options;
  resumed.journal_path = journal_path;  // keep checkpointing where we resumed

  JournalJoin joined = join_journal(journal_path, fleet);
  out.journal_matched = joined.matched;
  out.damaged = joined.damaged;
  out.warnings = std::move(joined.warnings);
  for (auto& slot : joined.slots) {
    if (!slot) continue;
    if (slot->outcome != ProbeOutcome::ok) {
      // Failures get a fresh attempt on resume: transient faults heal, and
      // deterministic ones reproduce the same record.
      ++out.rerun_failed;
      slot.reset();
    } else {
      ++out.reused;
    }
  }
  return run_fleet_supervised(fleet, resumed, std::move(joined.slots));
}

}  // namespace dnslocate::atlas
