// live_loopback: sequential probes, one in flight, through the
// LocalizationPipeline over sockets::UdpEngine via MappedBatchTransport,
// against one in-process LoopbackDnsServer interceptor with the dnsmasq
// personality. Every resolver address, the CPE's public IP and the bogon
// probe map to that server (a CPE that DNATs all of port 53). A fixed,
// content-keyed loss sends a known subset of queries down the retry path.
// The only real-socket workload: poll loop, timer wheel, RFC 5452 demux;
// no simulator and no scenario build.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "core/mapped_transport.h"
#include "netbase/bogon.h"
#include "resolvers/public_resolver.h"
#include "resolvers/resolver_behavior.h"
#include "sockets/loopback_server.h"
#include "sockets/udp_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dnslocate;
using namespace std::chrono_literals;

// Configured waits. Small, so the program's own work is a visible share of
// each probe's wall time; the duplicate window is paid once per stage.
constexpr auto kResponseDelay = 0ms;
constexpr auto kQueryTimeout = 8ms;
constexpr auto kRetryBackoff = 1ms;
constexpr unsigned kMaxAttempts = 2;
constexpr auto kDuplicateWindow = 1ms;
constexpr unsigned kLossPercent = 5;
// Fixed loss key: the victim set is the same whatever --seed is (the seed
// moves transaction IDs and 0x20 patterns, not the amount of work). Every
// query reaches the one server at 127.0.0.1, so the key is in effect the
// question; with this key the only victim is OpenDNS's location query
// (debug.opendns.com TXT), whose four queries burn their retry budget while
// the verdict still localizes the CPE from the other three resolvers.
constexpr std::uint64_t kLossSeed = 5;
// Probes per "run" for run_turnaround_ms_p50: one small live campaign.
constexpr std::size_t kProbesPerRun = 16;

/// Content-keyed loss: a query is dropped iff the FNV hash of its
/// case-folded name, type and server address falls under the threshold,
/// so every retry of a victim is dropped too. Also the span seam for the
/// responder: "resolvers.respond" times the wrapped ResolverBehavior.
class LossyResponder final : public resolvers::DnsResponder {
 public:
  explicit LossyResponder(std::shared_ptr<resolvers::DnsResponder> inner)
      : inner_(std::move(inner)) {}

  std::optional<dnswire::Message> respond(const dnswire::Message& query,
                                          const resolvers::QueryContext& context) override {
    if (const dnswire::Question* question = query.question()) {
      std::uint64_t h = fnv1a(question->name.to_lower().to_string(),
                              0xcbf29ce484222325ull ^ kLossSeed);
      h = fnv1a(std::string(1, static_cast<char>(question->type)), h);
      h = fnv1a(context.server_ip.to_string(), h);
      if (h % 100 < kLossPercent) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
    }
    trace::Span span("resolvers.respond");
    return inner_->respond(query, context);
  }

  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(); }

 private:
  std::shared_ptr<resolvers::DnsResponder> inner_;
  std::atomic<std::uint64_t> dropped_{0};
};

core::PipelineConfig live_config(const netbase::IpAddress& cpe_ip, std::uint64_t seed) {
  core::PipelineConfig config;
  config.cpe_public_ip = cpe_ip;
  config.query_id_seed = seed;
  core::RetryPolicy retry;
  retry.max_attempts = kMaxAttempts;
  retry.initial_backoff = kRetryBackoff;
  core::QueryOptions query;
  query.timeout = kQueryTimeout;
  query.retry = retry;
  config.detection.query = query;
  config.cpe_check.query = query;
  config.bogon.query = query;
  config.bogon.test_v6 = false;  // the loopback world is v4-only
  config.transparency.query = query;
  return config;
}

void map_world(core::MappedBatchTransport& transport, const netbase::Endpoint& target,
               const netbase::IpAddress& cpe_ip) {
  for (resolvers::PublicResolverKind kind : resolvers::all_public_resolvers()) {
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    for (const auto& address : spec.service_v4) transport.map_address(address, target);
    for (const auto& address : spec.service_v6) transport.map_address(address, target);
  }
  transport.map_address(cpe_ip, target);
  transport.map_address(netbase::BogonCatalog::default_probe_v4(), target);
}

std::shared_ptr<LossyResponder> make_responder() {
  resolvers::ResolverConfig alternate;
  alternate.software = resolvers::dnsmasq("2.78");
  alternate.egress_v4 = *netbase::IpAddress::parse("127.0.0.1");
  return std::make_shared<LossyResponder>(
      std::make_shared<resolvers::ResolverBehavior>(alternate));
}

}  // namespace

Result run_live_loopback(const Args& args) {
  Result result;
  print_host(args, "");
  std::printf("waits response_delay_ms=%lld timeout_ms=%lld backoff_ms=%lld attempts=%u "
              "duplicate_window_ms=%lld loss_percent=%u\n",
              static_cast<long long>(kResponseDelay.count()),
              static_cast<long long>(kQueryTimeout.count()),
              static_cast<long long>(kRetryBackoff.count()), kMaxAttempts,
              static_cast<long long>(kDuplicateWindow.count()), kLossPercent);

  // The client (this thread) and the server's thread share one CPU, so a
  // query and its answer hand that CPU back and forth rather than waking an
  // idle vCPU each way; an IdleSpinner keeps that CPU from halting during
  // the configured waits. After every run of kProbesPerRun probes all three
  // move to the next CPU (a new server there takes over), so the probes
  // meet every vCPU's quiet moments (noise cause N5 in perfbench/README.md).
  CpuRotation rotation;
  rotation.next();
  std::printf("placement client_server_and_idle_spinner=one_cpu rotated_over=%zu\n",
              rotation.cpus());
  std::optional<IdleSpinner> spinner;
  spinner.emplace();
  // CPU of client and server: the process's, less the spinner's.
  auto work_cpu_s = [&] { return process_cpu_s() - spinner->cpu_s(); };

  // Set-up: bind and start the interceptor, repeated; the median is
  // setup_s. It runs 501 times here and once more after every run of
  // kProbesPerRun probes, when a new server takes over on the next CPU, so
  // its samples span the whole run.
  const auto cpe_ip = *netbase::IpAddress::parse("203.0.113.7");
  auto responder = make_responder();
  std::vector<double> setup_s;
  auto start_server = [&] {
    auto start = Clock::now();
    auto started = std::make_unique<sockets::LoopbackDnsServer>(responder, /*serve_tcp=*/false,
                                                                kResponseDelay);
    setup_s.push_back(seconds_since(start));
    return started;
  };
  std::unique_ptr<sockets::LoopbackDnsServer> server;
  for (int i = 0; i < 501; ++i) {
    server.reset();
    server = start_server();
  }

  sockets::UdpEngine::Config engine_config;
  engine_config.duplicate_window = kDuplicateWindow;
  sockets::UdpEngine engine(engine_config);
  core::MappedBatchTransport mapped(engine);
  map_world(mapped, server->endpoint(), cpe_ip);
  const core::PipelineConfig config = live_config(cpe_ip, args.seed);

  // Every probe runs the same plan against the same server, so every
  // verdict should carry the same signature. Over real sockets a host stall
  // that holds an answer past its timeout legitimately turns it into a
  // timeout (and a retry), and can leave a stage without the answers it
  // needed. So the most common signature is the reference: it must localize
  // the CPE, at least 95% of probes must carry it, and every other probe
  // must differ only by lost answers — more timeouts than the reference,
  // never contested, and the ISP named only when a step-2 version.bind
  // answer was lost (§3.2 names the CPE only when every comparison query
  // answered, so such a loss moves the locus past the CPE).
  struct Variant {
    std::size_t probes = 0;
    std::string signature;
    core::ProbeVerdict verdict;
  };
  std::map<std::uint64_t, Variant> variants;  // by signature hash
  std::uint64_t probe_id = 0;

  struct Phase {
    double wall_s = 0;  // less the server hand-overs between runs
    double handover_s = 0;
    std::size_t probes = 0;
    std::vector<double> latency_ms, cpu_ms, run_ms;
  };
  std::uint64_t served = 0;
  auto run_phase = [&](double budget_s, bool traced) {
    Phase phase;
    trace::set_enabled(traced);
    TimedEngine timed(mapped);
    core::AsyncQueryTransport& transport =
        traced ? static_cast<core::AsyncQueryTransport&>(timed) : mapped;
    const auto start = Clock::now();
    double run_start = 0;
    while (seconds_since(start) < budget_s || phase.probes % kProbesPerRun != 0) {
      core::ProbeVerdict verdict;
      {
        trace::Span root("live.probe", ++probe_id);
        core::LocalizationPipeline pipeline(config);
        const double probe_cpu0 = work_cpu_s();
        auto t0 = Clock::now();
        {
          trace::Span span("core.pipeline_run");
          verdict = pipeline.run(transport);
        }
        phase.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
        phase.cpu_ms.push_back((work_cpu_s() - probe_cpu0) * 1e3);
      }
      ++result.attempted;
      if (verdict.skipped_stages != 0) ++result.failed;
      std::string signature = verdict_signature(verdict);
      Variant& variant = variants[fnv1a(signature)];
      if (variant.probes++ == 0) {
        variant.signature = std::move(signature);
        variant.verdict = std::move(verdict);
      }
      if (++phase.probes % kProbesPerRun == 0) {
        const double now = seconds_since(start);
        phase.run_ms.push_back((now - run_start) * 1e3);
        // The hand-over waits out the old server's poll tick (up to 50 ms);
        // it is kept out of the phase's wall time.
        rotation.next();
        spinner.reset();
        served += server->queries_served();
        server.reset();
        server = start_server();
        map_world(mapped, server->endpoint(), cpe_ip);
        spinner.emplace();
        const double resumed = seconds_since(start);
        phase.handover_s += resumed - now;
        run_start = resumed;
      }
    }
    phase.wall_s = seconds_since(start) - phase.handover_s;
    trace::set_enabled(false);
    return phase;
  };

  Phase plain = run_phase(args.trace ? args.seconds / 2 : args.seconds, false);
  Phase traced;
  if (args.trace) traced = run_phase(args.seconds / 2, true);
  served += server->queries_served();
  server.reset();
  spinner.reset();

  const Variant* reference = nullptr;
  for (const auto& [hash, variant] : variants)
    if (reference == nullptr || variant.probes > reference->probes) reference = &variant;
  std::size_t unexplained = 0;
  for (const auto& [hash, variant] : variants) {
    if (&variant == reference) continue;
    const core::ProbeVerdict& verdict = variant.verdict;
    bool step2_lost = false;
    if (verdict.cpe_check) {
      step2_lost = !verdict.cpe_check->cpe.answered;
      for (const auto& [kind, answer] : verdict.cpe_check->resolver_answers)
        step2_lost = step2_lost || !answer.answered;
    }
    std::printf("%zu probe(s) differ from the reference (location=%s timeouts=%u vs %u "
                "step2_answer_lost=%d):\n%s\n",
                variant.probes, std::string(core::to_string(verdict.location)).c_str(),
                static_cast<unsigned>(verdict.telemetry.timeouts),
                static_cast<unsigned>(reference->verdict.telemetry.timeouts), step2_lost ? 1 : 0,
                variant.signature.c_str());
    if (verdict.telemetry.timeouts <= reference->verdict.telemetry.timeouts ||
        verdict.location == core::InterceptorLocation::contested ||
        (verdict.location == core::InterceptorLocation::isp && !step2_lost))
      unexplained += variant.probes;
  }
  std::printf("verdict_digest=%016llx probes=%llu matching=%zu server_queries=%llu "
              "dropped=%llu\n",
              static_cast<unsigned long long>(fnv1a(reference->signature)),
              static_cast<unsigned long long>(probe_id), reference->probes,
              static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(responder->dropped()));
  result.check(reference->verdict.location == core::InterceptorLocation::cpe,
               "reference verdict localizes the interceptor to the CPE");
  result.check(reference->probes * 100 >= probe_id * 95,
               "verdict signature identical on >= 95% of probes");
  result.check(unexplained == 0, "other probes differ only by answers lost to timeouts");
  result.check(responder->dropped() > 0, "content-keyed loss exercised the retry path");
  result.check(result.failed == 0, "no probe skipped a stage");

  // Probes are identical units, so the CPU one costs is the fastest of the
  // per-probe process CPU times (client and server threads; see fastest).
  // Throughput and latency follow the configured waits and are taken as
  // measured.
  const double probes = static_cast<double>(plain.probes);
  double cpu_ms = 0;
  for (double ms : plain.cpu_ms) cpu_ms += ms;
  std::printf("process CPU per probe: median %.4f ms, mean %.4f ms\n", median(plain.cpu_ms),
              cpu_ms / probes);
  const double tail_ms =
      report_end_to_end(result, {setup_s, probes / plain.wall_s, fastest(plain.cpu_ms),
                                 plain.latency_ms, plain.run_ms});

  if (args.trace) {
    auto stats = trace::layer_stats();
    const double units = static_cast<double>(traced.probes);
    const auto& root = stats["live.probe"];
    const auto& pipeline = stats["core.pipeline_run"];
    const auto& engine = stats["core.engine_batch"];
    const auto& respond = stats["resolvers.respond"];
    std::map<std::string, double> m;
    m["core.pipeline_self_us"] = per_unit(pipeline.self_s, units, 1e6);
    m["core.engine_batch_us"] = per_unit(engine.total_s, units, 1e6);
    m["core.engine_batch_cpu_us"] = per_unit(engine.cpu_s, units, 1e6);
    m["core.engine_batch_wait_us"] = per_unit(engine.total_s - engine.cpu_s, units, 1e6);
    m["core.batches_per_probe"] = units > 0 ? static_cast<double>(engine.count) / units : 0;
    // The reference probe's telemetry is the exact per-probe count.
    const core::TransportTelemetry& telemetry = reference->verdict.telemetry;
    m["core.queries_per_probe"] = static_cast<double>(telemetry.queries);
    m["core.attempts_per_probe"] = static_cast<double>(telemetry.attempts);
    m["core.retries_per_probe"] = static_cast<double>(telemetry.retries);
    m["core.timeouts_per_probe"] = static_cast<double>(telemetry.timeouts);
    m["core.arbitration_conflicts_per_probe"] = static_cast<double>(telemetry.conflicts);
    m["resolvers.respond_us"] =
        respond.count > 0 ? respond.total_s / static_cast<double>(respond.count) * 1e6 : 0.0;
    m["trace.overhead"] = (traced.wall_s / units) / (plain.wall_s / probes) - 1.0;
    m["latency_ms_tail"] = tail_ms;
    m["trace.layer_sum_ratio"] =
        root.total_s > 0 ? (pipeline.self_s + engine.self_s) / root.total_s : 0.0;
    emit_layers(result, m, kProbeLayerSumMin);
  }
  return result;
}

}  // namespace perfbench
