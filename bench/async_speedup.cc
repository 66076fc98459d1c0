// Async engine speedup: the batched UdpEngine vs the same engine admitting
// one query at a time (Config::max_inflight = 1), over real loopback
// sockets, with identical verdicts as the gate.
//
// The setup reproduces the paper's worst realistic conditions for a
// sequential prober: every query pays a round-trip delay, every answered
// query then sits through the duplicate-collection window (replication
// detection, §3.1), and a content-keyed ~5% burst loss makes a few queries
// time out through their whole retry budget. The blocking leg pays those
// costs as a SUM (one query at a time); the batched engine pays the MAX per
// stage (all of a stage's queries in flight together), so the probe's wall
// clock drops by roughly (queries per probe / pipeline stages).
//
// The gate is twofold:
//   1. Byte-identical evidence: the full describe() trail, the location, the
//      skipped-stage mask, and the transport telemetry counts must agree
//      between engines on every round. (RTTs are wall-clock and excluded.)
//      Loss is keyed on the case-folded question name + server — invariant
//      across retry re-randomization — so both engines lose exactly the
//      same queries.
//   2. >= 4x wall-clock reduction (full mode only; --smoke exercises the
//      path in CI without gating on a shared runner's scheduling noise).
//
// Usage: async_speedup [--smoke] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/describe.h"
#include "core/mapped_transport.h"
#include "core/pipeline.h"
#include "jsonio/json.h"
#include "netbase/bogon.h"
#include "sockets/loopback_server.h"
#include "sockets/udp_engine.h"

using namespace dnslocate;

namespace {

using Clock = std::chrono::steady_clock;
using resolvers::PublicResolverKind;

/// Deterministic content-keyed burst loss: a query is a victim iff the FNV
/// hash of (case-folded qname, qtype, server address) lands under the loss
/// threshold. Every retry of a victim hashes identically (re-randomization
/// only changes the transaction ID and the 0x20 case bits), so a victim
/// times out through its whole budget — correlated "burst" loss — and both
/// engines see exactly the same outcome for every query.
class LossyResponder final : public resolvers::DnsResponder {
 public:
  LossyResponder(std::shared_ptr<resolvers::DnsResponder> inner, unsigned loss_percent,
                 std::uint64_t seed)
      : inner_(std::move(inner)), loss_percent_(loss_percent), seed_(seed) {}

  std::optional<dnswire::Message> respond(const dnswire::Message& query,
                                          const resolvers::QueryContext& context) override {
    if (const dnswire::Question* question = query.question()) {
      std::uint64_t h = 0xcbf29ce484222325ull ^ seed_;
      auto mix = [&h](unsigned char byte) { h = (h ^ byte) * 0x100000001b3ull; };
      for (char c : question->name.to_lower().to_string()) mix(static_cast<unsigned char>(c));
      mix(static_cast<unsigned char>(question->type));
      for (char c : context.server_ip.to_string()) mix(static_cast<unsigned char>(c));
      if (h % 100 < loss_percent_) {
        ++dropped_;
        return std::nullopt;  // silence: the client times out and retries
      }
    }
    return inner_->respond(query, context);
  }

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::shared_ptr<resolvers::DnsResponder> inner_;
  unsigned loss_percent_;
  std::uint64_t seed_;
  std::uint64_t dropped_ = 0;
};

/// Everything the equality gate compares — the full evidence trail minus
/// wall-clock artifacts (RTTs, elapsed times).
std::string verdict_signature(const core::ProbeVerdict& verdict) {
  std::string signature = core::describe(verdict);
  signature += "\nlocation=" + std::string(core::to_string(verdict.location));
  signature += " skipped=" + std::to_string(verdict.skipped_stages);
  signature += " queries=" + std::to_string(verdict.telemetry.queries);
  signature += " attempts=" + std::to_string(verdict.telemetry.attempts);
  signature += " retries=" + std::to_string(verdict.telemetry.retries);
  signature += " timeouts=" + std::to_string(verdict.telemetry.timeouts);
  signature += " answered=" + std::to_string(verdict.telemetry.answered);
  return signature;
}

using bench::median;

core::PipelineConfig bench_config(const netbase::IpAddress& cpe_ip) {
  core::PipelineConfig config;
  config.cpe_public_ip = cpe_ip;
  // Short timeouts keep the bench brisk; the ratios are what matter. The
  // retry policy gives every lost query a second (re-randomized) attempt.
  core::RetryPolicy retry;
  retry.max_attempts = 2;
  retry.initial_backoff = std::chrono::milliseconds(50);
  config.apply_retry_policy(retry);
  core::QueryOptions query;
  query.timeout = std::chrono::milliseconds(250);
  query.retry = retry;
  config.detection.query = query;
  config.cpe_check.query = query;
  config.bogon.query = query;
  config.bogon.test_v6 = false;  // the loopback world is v4-only
  config.transparency.query = query;
  config.replication.query = query;
  config.detect_replication = true;
  return config;
}

/// Map every address the pipeline can target at the interceptor: all four
/// resolvers' primary + secondary v4 and v6 service addresses, the CPE's
/// public IP, and the default bogon probe — the socket-level equivalent of
/// a CPE that DNATs all of port 53.
void map_world(core::MappedBatchTransport& transport, const netbase::Endpoint& target,
               const netbase::IpAddress& cpe_ip) {
  for (PublicResolverKind kind : resolvers::all_public_resolvers()) {
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    for (const auto& address : spec.service_v4) transport.map_address(address, target);
    for (const auto& address : spec.service_v6) transport.map_address(address, target);
  }
  transport.map_address(cpe_ip, target);
  transport.map_address(netbase::BogonCatalog::default_probe_v4(), target);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  constexpr unsigned kLossPercent = 5;
  // Chosen so the distinct (qname, qtype) keys this world produces include
  // a victim at 5% — the loss path is exercised, not just configured. (One
  // resolver's location-query name is the victim: its probes burn their full
  // retry budget, and the verdict still localizes to the CPE off the rest.)
  constexpr std::uint64_t kLossSeed = 11;
  const auto response_delay = std::chrono::milliseconds(smoke ? 10 : 30);
  const int rounds = smoke ? 1 : 3;

  bench::heading("Async engine speedup: UdpEngine batched vs max_inflight=1");

  // One loopback interceptor plays the CPE-DNAT world: it answers every
  // resolver address, the CPE's public IP, and the bogon, as a dnsmasq
  // forwarder would — behind the configured per-answer delay and loss.
  resolvers::ResolverConfig alternate;
  alternate.software = resolvers::dnsmasq("2.78");
  alternate.egress_v4 = *netbase::IpAddress::parse("127.0.0.1");
  auto lossy = std::make_shared<LossyResponder>(
      std::make_shared<resolvers::ResolverBehavior>(alternate), kLossPercent, kLossSeed);
  sockets::LoopbackDnsServer interceptor(lossy, /*serve_tcp=*/false, response_delay);

  auto cpe_ip = *netbase::IpAddress::parse("203.0.113.7");
  core::PipelineConfig config = bench_config(cpe_ip);

  sockets::UdpEngine::Config one_at_a_time;
  one_at_a_time.max_inflight = 1;
  sockets::UdpEngine serial_engine(one_at_a_time);
  core::MappedBatchTransport blocking(serial_engine);
  map_world(blocking, interceptor.endpoint(), cpe_ip);

  sockets::UdpEngine engine;
  core::MappedBatchTransport async(engine);
  map_world(async, interceptor.endpoint(), cpe_ip);

  std::printf("[world] delay=%lldms, burst loss=%u%%, retry=2 attempts, %d round(s)%s\n",
              static_cast<long long>(response_delay.count()), kLossPercent, rounds,
              smoke ? " (smoke)" : "");

  std::vector<double> blocking_ms, async_ms;
  std::vector<std::string> signatures;
  for (int round = 0; round < rounds; ++round) {
    // Alternate the order so machine drift cancels instead of compounding.
    for (int leg = 0; leg < 2; ++leg) {
      bool run_blocking = (round + leg) % 2 == 0;
      core::LocalizationPipeline pipeline(config);
      auto start = Clock::now();
      core::ProbeVerdict verdict = pipeline.run(run_blocking ? blocking : async);
      double ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
      (run_blocking ? blocking_ms : async_ms).push_back(ms);
      signatures.push_back((run_blocking ? "blocking\n" : "async\n") +
                           verdict_signature(verdict));
      std::printf("  %-8s %7.1f ms  (%s, %llu queries)\n",
                  run_blocking ? "blocking" : "async", ms,
                  core::to_string(verdict.location).data(),
                  static_cast<unsigned long long>(verdict.telemetry.queries));
    }
  }

  bench::heading("checks");

  // 1. Identical evidence: every signature must match the first of its
  //    engine, and the two engines' signatures must match each other
  //    (modulo the engine tag prefixed above).
  bool identical = true;
  std::string reference;
  for (const std::string& tagged : signatures) {
    std::string body = tagged.substr(tagged.find('\n') + 1);
    if (reference.empty()) reference = body;
    else if (body != reference) identical = false;
  }
  std::printf("identical verdicts and telemetry across engines: %s\n",
              identical ? "pass" : "FAIL");

  // 2. Wall-clock reduction.
  double blocking_median = median(blocking_ms);
  double async_median = median(async_ms);
  double speedup = async_median > 0.0 ? blocking_median / async_median : 0.0;
  std::printf("blocking: %.1f ms (median)\n", blocking_median);
  std::printf("async:    %.1f ms (median)\n", async_median);
  std::printf("speedup:  %.2fx\n", speedup);
  std::printf("server drops (content-keyed burst loss): %llu\n",
              static_cast<unsigned long long>(lossy->dropped()));
  bool fast = speedup >= 4.0;
  std::printf("speedup >= 4x: %s%s\n", fast ? "pass" : "FAIL",
              smoke ? " (not gating in smoke mode)" : "");

  if (json_path != nullptr) {
    jsonio::Object out;
    out["bench"] = std::string("async_speedup");
    out["smoke"] = smoke;
    out["rounds"] = static_cast<std::uint64_t>(rounds);
    out["loss_percent"] = static_cast<std::uint64_t>(kLossPercent);
    out["response_delay_ms"] = static_cast<std::uint64_t>(response_delay.count());
    out["blocking_ms_median"] = blocking_median;
    out["async_ms_median"] = async_median;
    out["speedup"] = speedup;
    out["server_drops"] = lossy->dropped();
    out["check_identical_verdicts"] = identical;
    out["check_speedup_4x"] = fast;
    std::ofstream file(json_path);
    file << jsonio::Value(std::move(out)).dump() << "\n";
    std::printf("wrote %s\n", json_path);
  }

  bool ok = identical && (fast || smoke);
  std::printf("\noverall: %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}
