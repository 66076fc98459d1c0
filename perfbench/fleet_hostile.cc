// fleet_hostile: the built-in calibrated fleet (at a tenth of its size, every
// interception quota intact) with every probe behind an on-path transit
// spoofer and omnibox ISP DPI, 5% burst loss on the access link, three
// attempts per query and the fingerprint stage on, run through
// atlas::run_fleet without a journal, in fixed chunks that every pass
// repeats, on one shard moved to the next CPU every pass (one more pass on
// two shards measures shard skew). Scenario construction, simulator
// stepping and routing, exchange arbitration and retries, and DPI
// re-encoding do the work; sockets, HTTP and disk are bypassed.
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <optional>
#include <set>

#include "atlas/fleet.h"
#include "atlas/journal.h"
#include "atlas/measurement.h"
#include "atlas/scenario.h"
#include "atlas/sharding.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dnslocate;
using core::InterceptorLocation;

// Shards of the measured passes: one, so a chunk's time is one thread's on
// one CPU (noise causes N1 and N5 in perfbench/README.md). A traced run
// makes one more pass on kSkewShards for atlas.shard_skew.
constexpr unsigned kShards = 1;
constexpr unsigned kSkewShards = 2;
// FleetConfig::scale: about a thousand probes, with every interception
// quota at its full value. A pass over the fleet takes a few hundred ms, so
// a run repeats every unit of work about a hundred times.
constexpr double kFleetScale = 0.1;
// Probes per run_fleet call. A pass runs the fleet as consecutive chunks of
// this many probes, so every chunk is a unit of work repeated once per
// pass, short enough (about 15 ms) to land inside the host's quiet moments.
constexpr std::size_t kChunkProbes = 64;

atlas::FleetConfig hostile_config(std::uint64_t seed) {
  atlas::FleetConfig config;
  config.seed = seed;
  config.scale = kFleetScale;
  config.faults = simnet::FaultProfile::burst_loss(0.05);
  config.retry.max_attempts = 3;
  config.adversary.transit_spoofer = simnet::SpooferConfig{};
  config.adversary.isp_dpi = simnet::dpi_omnibox();
  config.run_fingerprint = true;
  return config;
}

void strip(core::QueryResult& result) {
  result.all_responses.clear();
  result.all_responses.shrink_to_fit();
}

/// atlas::run_probe, step for step, with spans around each call into the
/// program: scenario construction, the pipeline (whose engine batches the
/// TimedEngine times), and scenario teardown. The traced passes must give
/// the same verdict digest as the untraced ones.
atlas::ProbeRecord traced_probe(const atlas::ProbeSpec& spec, const core::CancelToken& cancel) {
  trace::Span root("atlas.probe", spec.probe_id + 1ull);
  atlas::ProbeRecord record;
  record.probe_id = spec.probe_id;
  record.org = spec.org;
  record.tested_v6 = spec.scenario.home_ipv6;
  std::optional<atlas::Scenario> scenario;
  {
    trace::Span span("atlas.scenario_build");
    scenario.emplace(spec.scenario);
  }
  record.truth = scenario->ground_truth();
  core::LocalizationPipeline pipeline(scenario->pipeline_config());
  TimedEngine engine(static_cast<core::AsyncQueryTransport&>(scenario->transport()));
  {
    trace::Span span("core.pipeline_run");
    record.verdict = pipeline.run(engine, cancel);
  }
  record.drops = scenario->sim().drops();
  record.faults = scenario->fault_plan().counters();
  for (auto& probe : record.verdict.detection.probes) strip(probe.result);
  if (record.verdict.bogon) {
    strip(record.verdict.bogon->v4.a_query);
    strip(record.verdict.bogon->v4.version_query);
    strip(record.verdict.bogon->v6.a_query);
    strip(record.verdict.bogon->v6.version_query);
  }
  {
    trace::Span span("atlas.scenario_teardown");
    scenario.reset();
  }
  return record;
}

/// Verdict digest and adversary invariants of one pass, accumulated over
/// its chunks in fleet order.
struct PassCheck {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::size_t failed = 0;
  std::size_t fabricated = 0;  // cpe/isp claimed on a clean path
  std::size_t moved = 0;       // cpe/isp claimed where the truth differs
  std::size_t unknown_on_clean = 0;  // interception at no locus, clean path
  std::size_t s6_cases = 0;    // the paper's §6 false CPE attribution
  std::size_t contested = 0;
  std::size_t contested_without_conflict = 0;
  std::string first_violation;  // the first probe breaking an invariant

  /// `s6_homes` are the probes whose CPE is the §6 CHAOS-forwarding router
  /// behind an intercepting ISP: the technique attributes them to the CPE
  /// by design (the paper's documented misclassification), with or without
  /// adversaries, so they are counted apart rather than as moved.
  void add(const atlas::MeasurementRun& run, const std::set<std::uint32_t>& s6_homes);
};

void PassCheck::add(const atlas::MeasurementRun& run, const std::set<std::uint32_t>& s6_homes) {
  PassCheck& check = *this;
  for (const auto& record : run.records) {
    const auto& verdict = record.verdict;
    check.digest = fnv1a(std::to_string(record.probe_id), check.digest);
    check.digest = fnv1a(verdict_signature(verdict), check.digest);
    if (record.outcome != atlas::ProbeOutcome::ok) ++check.failed;
    const InterceptorLocation measured = verdict.location;
    const InterceptorLocation expected = record.truth.expected;
    const bool claims_locus =
        measured == InterceptorLocation::cpe || measured == InterceptorLocation::isp;
    if (expected == InterceptorLocation::not_intercepted && claims_locus)
      ++check.fabricated;
    else if (expected == InterceptorLocation::not_intercepted &&
             measured == InterceptorLocation::unknown)
      ++check.unknown_on_clean;
    else if (claims_locus && measured != expected)
      ++(s6_homes.count(record.probe_id) != 0 ? check.s6_cases : check.moved);
    if (measured == InterceptorLocation::contested) {
      ++check.contested;
      if (verdict.telemetry.conflicts == 0) ++check.contested_without_conflict;
    }
    if (check.first_violation.empty() &&
        check.fabricated + check.moved + check.contested_without_conflict > 0)
      check.first_violation = "probe " + std::to_string(record.probe_id) + " truth=" +
                              std::string(core::to_string(expected)) + "\n" +
                              verdict_signature(verdict);
  }
}

/// One untimed run_fleet over the whole fleet on kSkewShards: the gap
/// between the first and the last shard's final completion (from on_record
/// timestamps), divided by the wall time.
double shard_skew(const std::vector<atlas::ProbeSpec>& fleet) {
  atlas::MeasurementOptions options;
  options.shards = kSkewShards;
  std::vector<Clock::time_point> last_done(kSkewShards);
  std::mutex last_mutex;
  options.on_record = [&](const atlas::ProbeRecord& record) {
    std::lock_guard<std::mutex> lock(last_mutex);
    last_done[atlas::shard_of(record.probe_id, kSkewShards)] = Clock::now();
  };
  const auto start = Clock::now();
  (void)atlas::run_fleet(fleet, options);
  const double wall = seconds_since(start);
  auto [lo, hi] = std::minmax_element(last_done.begin(), last_done.end());
  return std::chrono::duration<double>(*hi - *lo).count() / wall;
}

struct Phase {
  double wall_s = 0;  // summed over the run_fleet calls
  double cpu_s = 0;
  std::size_t probes = 0;
  std::size_t passes = 0;
  Repeats chunk_wall_s;  // by chunk, one repeat per pass
  Repeats chunk_cpu_s;
  Repeats probe_ms;      // by probe (fleet order): ProbeRecord::elapsed
  double elapsed_s = 0;  // ProbeRecord::elapsed, summed
};

}  // namespace

Result run_fleet_hostile(const Args& args) {
  Result result;
  print_host(args, "");
  const atlas::FleetConfig config = hostile_config(args.seed);

  // Set-up: fleet generation, repeated; the median is setup_s (and, in
  // the per-layer table, atlas.generate_fleet_ms). It runs 31 times here
  // and once more after every pass, so its samples span the whole run.
  std::vector<double> setup_s;
  auto generate = [&] {
    auto start = Clock::now();
    std::vector<atlas::ProbeSpec> fleet = atlas::generate_fleet(config);
    setup_s.push_back(seconds_since(start));
    return fleet;
  };
  std::vector<atlas::ProbeSpec> fleet;
  for (int i = 0; i < 31; ++i) fleet = generate();
  const std::uint64_t fingerprint = atlas::fleet_fingerprint(fleet);
  std::size_t regenerated_mismatches = 0;
  std::set<std::uint32_t> s6_homes;
  for (const auto& spec : fleet)
    if (spec.scenario.cpe.kind == atlas::CpeStyle::Kind::benign_open_chaos_forwarder)
      s6_homes.insert(spec.probe_id);
  std::vector<std::vector<atlas::ProbeSpec>> chunks;
  for (std::size_t i = 0; i < fleet.size(); i += kChunkProbes)
    chunks.emplace_back(fleet.begin() + static_cast<std::ptrdiff_t>(i),
                        fleet.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(fleet.size(), i + kChunkProbes)));
  const double fleet_size = static_cast<double>(fleet.size());
  std::printf("fleet scale=%.2f probes=%.0f shards=%u skew_shards=%u chunks=%zu "
              "chunk_probes=%zu burst_loss=0.05 max_attempts=3 "
              "adversary=transit_spoofer+isp_dpi_omnibox fingerprint=1\n",
              kFleetScale, fleet_size, kShards, kSkewShards, chunks.size(), kChunkProbes);

  std::optional<PassCheck> reference;
  std::size_t mismatched_passes = 0;
  Counts counts;

  // Whole passes over the fleet, chunk by chunk, until the phase's share of
  // --seconds is spent. Wall and CPU are taken around each run_fleet call;
  // the checks between calls are outside the timing.
  auto run_phase = [&](double budget_s, bool traced) {
    Phase phase;
    CpuRotation rotation;
    trace::set_enabled(traced);
    while (phase.passes == 0 || phase.wall_s < budget_s) {
      rotation.next();
      PassCheck check;
      std::size_t probe_index = 0;
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        atlas::MeasurementOptions options;
        options.shards = kShards;
        if (traced) options.runner = traced_probe;
        const double cpu0 = process_cpu_s();
        const auto start = Clock::now();
        atlas::MeasurementRun run = atlas::run_fleet(chunks[c], options);
        const double wall = seconds_since(start);
        const double cpu = process_cpu_s() - cpu0;
        trace::set_enabled(false);
        phase.wall_s += wall;
        phase.cpu_s += cpu;
        phase.chunk_wall_s.add(c, wall);
        phase.chunk_cpu_s.add(c, cpu);
        phase.probes += run.records.size();
        for (const auto& record : run.records) {
          phase.probe_ms.add(probe_index++, static_cast<double>(record.elapsed.count()) / 1e3);
          phase.elapsed_s += static_cast<double>(record.elapsed.count()) / 1e6;
        }
        check.add(run, s6_homes);
        if (!reference) counts.add(run);
        result.attempted += run.records.size() + run.not_run;
        result.failed += run.not_run;
        trace::set_enabled(traced);
      }
      ++phase.passes;
      if (atlas::fleet_fingerprint(generate()) != fingerprint) ++regenerated_mismatches;
      result.failed += check.failed;
      if (!reference) reference = check;
      else if (check.digest != reference->digest) ++mismatched_passes;
    }
    trace::set_enabled(false);
    return phase;
  };

  Phase plain = run_phase(args.trace ? args.seconds / 2 : args.seconds, false);
  Phase traced;
  if (args.trace) traced = run_phase(args.seconds / 2, true);

  std::printf("verdict_digest=%016llx passes=%zu\n",
              static_cast<unsigned long long>(reference->digest), plain.passes + traced.passes);
  std::printf("adversary fabricated=%zu moved=%zu s6_false_cpe=%zu unknown_on_clean=%zu "
              "contested=%zu contested_without_conflict=%zu\n",
              reference->fabricated, reference->moved, reference->s6_cases,
              reference->unknown_on_clean, reference->contested,
              reference->contested_without_conflict);
  result.check(mismatched_passes == 0, "every pass replays the same verdict digest");
  result.check(regenerated_mismatches == 0, "every set-up generates the same fleet");
  if (!reference->first_violation.empty())
    std::printf("first invariant violation: %s\n", reference->first_violation.c_str());
  result.check(reference->fabricated == 0, "no cpe/isp location fabricated on a clean path");
  result.check(reference->moved == 0, "no cpe/isp location moved off the ground truth");
  result.check(reference->contested_without_conflict == 0,
               "contested only on a genuine answer conflict");
  result.check(result.failed == 0, "every probe outcome ok");

  // Every chunk and every probe is a unit repeated once per pass; each
  // counts at its fastest repeat (see fastest). A "run" is one chunk, a
  // campaign of kChunkProbes probes through run_fleet.
  std::vector<double> chunk_ms = plain.chunk_wall_s.fastest();
  for (double& ms : chunk_ms) ms *= 1e3;
  std::printf("fastest repeats over %zu passes; totals: %.0f probes in %.3f s, "
              "%.3f CPU s\n",
              plain.passes, static_cast<double>(plain.probes), plain.wall_s, plain.cpu_s);
  const double tail_ms = report_end_to_end(
      result, {setup_s, fleet_size / plain.chunk_wall_s.fastest_sum(),
               plain.chunk_cpu_s.fastest_sum() * 1e3 / fleet_size, plain.probe_ms.fastest(),
               chunk_ms});

  if (args.trace) {
    auto stats = trace::layer_stats();
    const double units = static_cast<double>(traced.probes);
    const auto& root = stats["atlas.probe"];
    const auto& build = stats["atlas.scenario_build"];
    const auto& teardown = stats["atlas.scenario_teardown"];
    const auto& pipeline = stats["core.pipeline_run"];
    const auto& engine = stats["core.engine_batch"];
    std::map<std::string, double> m;
    m["atlas.generate_fleet_ms"] = median(setup_s) * 1e3;
    m["atlas.scenario_build_us"] = per_unit(build.total_s, units, 1e6);
    m["atlas.scenario_teardown_us"] = per_unit(teardown.total_s, units, 1e6);
    m["atlas.shard_skew"] = shard_skew(fleet);
    m["core.pipeline_self_us"] = per_unit(pipeline.self_s, units, 1e6);
    m["core.engine_batch_us"] = per_unit(engine.total_s, units, 1e6);
    m["core.engine_batch_cpu_us"] = per_unit(engine.cpu_s, units, 1e6);
    m["core.engine_batch_wait_us"] = per_unit(engine.total_s - engine.cpu_s, units, 1e6);
    m["core.batches_per_probe"] = units > 0 ? static_cast<double>(engine.count) / units : 0;
    counts.fill(m);
    // Per probe, so the two phases' shard counts do not enter it.
    m["trace.overhead"] =
        (root.total_s / units) / (plain.elapsed_s / static_cast<double>(plain.probes)) - 1.0;
    const double layer_self = build.self_s + teardown.self_s + pipeline.self_s + engine.self_s;
    m["latency_ms_tail"] = tail_ms;
    m["trace.layer_sum_ratio"] = root.total_s > 0 ? layer_self / root.total_s : 0.0;
    emit_layers(result, m, kProbeLayerSumMin);
  }
  return result;
}

}  // namespace perfbench
