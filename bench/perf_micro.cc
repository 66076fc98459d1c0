// P1: microbenchmarks for the substrates — DNS codec, name handling, LPM
// routing, NAT translation, single queries through the simulator, and the
// full per-probe pipeline. Establishes that full-fleet runs stay cheap.
//
// Usage: perf_micro [--smoke] [--json PATH] [google-benchmark flags]
//   Without --smoke this is a normal google-benchmark binary.
//   --smoke measures the exchange-kernel overhead (CI writes it to
//   BENCH_exchange.json): every simulated query now runs through
//   core::run_exchange behind the ExchangeChannel seam, and this mode times
//   it against a hand-inlined copy of the pre-kernel sequential loop.
//   Back-to-back A/B pairs on the same process cancel runner drift, so the
//   paired ratio gates (<= 1.10x) even on shared machines; the absolute
//   nanoseconds are informational against the committed pre-refactor
//   baseline (bench/baselines/BENCH_exchange_baseline.json).
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstring>
#include <fstream>

#include "atlas/fleet.h"
#include "atlas/scenario.h"
#include "bench_util.h"
#include "core/pipeline.h"
#include "dnswire/debug_queries.h"
#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "dnswire/message.h"
#include "jsonio/json.h"
#include "netbase/bogon.h"
#include "netbase/lpm.h"
#include "obs/clock.h"
#include "obs/span.h"
#include "simnet/rng.h"

using namespace dnslocate;

namespace {

dnswire::Message typical_response() {
  auto query = dnswire::make_query(0x1234, *dnswire::DnsName::parse("www.example.com"),
                                   dnswire::RecordType::A);
  auto response = dnswire::make_response(query);
  response.answers.push_back(dnswire::make_a(*dnswire::DnsName::parse("www.example.com"),
                                             netbase::Ipv4Address(93, 184, 216, 34)));
  response.answers.push_back(dnswire::make_cname(*dnswire::DnsName::parse("www.example.com"),
                                                 *dnswire::DnsName::parse("example.com")));
  return response;
}

void BM_EncodeMessage(benchmark::State& state) {
  auto message = typical_response();
  for (auto _ : state) benchmark::DoNotOptimize(dnswire::encode_message(message));
}
BENCHMARK(BM_EncodeMessage);

void BM_DecodeMessage(benchmark::State& state) {
  auto wire = dnswire::encode_message(typical_response());
  for (auto _ : state) benchmark::DoNotOptimize(dnswire::decode_message(wire));
}
BENCHMARK(BM_DecodeMessage);

void BM_DecodeUncompressed(benchmark::State& state) {
  auto wire = dnswire::encode_message(typical_response(), {.compress_names = false});
  for (auto _ : state) benchmark::DoNotOptimize(dnswire::decode_message(wire));
}
BENCHMARK(BM_DecodeUncompressed);

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(dnswire::DnsName::parse("o-o.myaddr.l.google.com"));
}
BENCHMARK(BM_NameParse);

/// A dual-stack routing table of `routes` entries shaped like the ones the
/// simulator builds (both default routes, then specifics, every third one
/// v6), and 64 v4 destinations: one hitting each v4 specific, the rest
/// falling through to the default route.
struct RouteTableFixture {
  netbase::LpmTable<int> table;
  std::vector<netbase::IpAddress> destinations;

  explicit RouteTableFixture(int routes) {
    simnet::Rng rng(7);
    table.insert(netbase::Prefix(netbase::IpAddress(netbase::Ipv4Address{}), 0), 0);
    table.insert(netbase::Prefix(netbase::IpAddress(netbase::Ipv6Address{}), 0), 1);
    for (int i = 2; i < routes; ++i) {
      if (i % 3 == 0) {
        std::array<std::uint8_t, 16> bytes{};
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
        table.insert(netbase::Prefix(netbase::IpAddress(netbase::Ipv6Address(bytes)), 48), i);
        continue;
      }
      netbase::IpAddress addr(netbase::Ipv4Address(static_cast<std::uint32_t>(rng.next_u64())));
      table.insert(netbase::Prefix(addr, 16u + static_cast<unsigned>(i) % 17u), i);
      if (destinations.size() < 64) destinations.push_back(addr);
    }
    while (destinations.size() < 64)
      destinations.emplace_back(netbase::Ipv4Address(static_cast<std::uint32_t>(rng.next_u64())));
  }
};

// Table sizes the fleet actually looks up in: devices hold 2-7 routes, ISP
// routers 18-21 (counted over a whole fleet pass). netbase/lpm.h is a flat
// scan sized for exactly these. The 1000-route case is informational: no
// caller builds a table that large; it shows the O(routes) cliff the size
// assumption accepts.
void BM_LpmLookup(benchmark::State& state) {
  RouteTableFixture fixture(static_cast<int>(state.range(0)));
  if (state.range(0) > 100) state.SetLabel("informational");
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        fixture.table.lookup(fixture.destinations[i++ % fixture.destinations.size()]));
}
BENCHMARK(BM_LpmLookup)->Arg(4)->Arg(6)->Arg(20)->Arg(1000);

// The standard bogon catalog (23 prefixes, both families) behind every
// is_bogon() check on the forwarding path.
void BM_BogonLookup(benchmark::State& state) {
  const auto catalog = netbase::BogonCatalog::standard();
  RouteTableFixture fixture(20);
  fixture.destinations.push_back(netbase::BogonCatalog::default_probe_v4());
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        catalog.is_bogon(fixture.destinations[i++ % fixture.destinations.size()]));
  state.counters["routes"] = static_cast<double>(catalog.entries().size());
}
BENCHMARK(BM_BogonLookup);

void BM_SimQueryRoundTrip(benchmark::State& state) {
  atlas::ScenarioConfig config;
  atlas::Scenario scenario(config);
  auto query = dnswire::make_chaos_query(1, dnswire::version_bind());
  const auto& quad9 = resolvers::PublicResolverSpec::get(resolvers::PublicResolverKind::quad9);
  netbase::Endpoint server{quad9.service_v4[0], netbase::kDnsPort};
  for (auto _ : state) {
    query.id++;
    benchmark::DoNotOptimize(core::query_one(scenario.transport(), server, query));
  }
}
BENCHMARK(BM_SimQueryRoundTrip);

void BM_FullProbePipeline(benchmark::State& state) {
  // Scenario construction + the complete localization pipeline (the unit of
  // work the fleet runs ~9,650 times).
  for (auto _ : state) {
    atlas::ScenarioConfig config;
    config.isp_policy.middlebox_enabled = true;
    atlas::Scenario scenario(config);
    core::LocalizationPipeline pipeline(scenario.pipeline_config());
    benchmark::DoNotOptimize(pipeline.run(scenario.transport()));
  }
}
BENCHMARK(BM_FullProbePipeline);

void BM_JsonDumpParse(benchmark::State& state) {
  jsonio::Object object;
  object["probe_id"] = 1234;
  object["org"] = "Comcast (AS7922)";
  object["location"] = "cpe";
  jsonio::Array kinds;
  for (int i = 0; i < 4; ++i) {
    jsonio::Object entry;
    entry["tested_v4"] = true;
    entry["intercepted_v4"] = (i % 2) == 0;
    kinds.push_back(jsonio::Value(std::move(entry)));
  }
  object["detection"] = std::move(kinds);
  jsonio::Value value(std::move(object));
  for (auto _ : state) {
    std::string text = value.dump();
    benchmark::DoNotOptimize(jsonio::parse(text));
  }
}
BENCHMARK(BM_JsonDumpParse);

void BM_FleetGeneration(benchmark::State& state) {
  for (auto _ : state) {
    atlas::FleetConfig config;
    config.scale = 0.1;
    benchmark::DoNotOptimize(atlas::generate_fleet(config));
  }
}
BENCHMARK(BM_FleetGeneration);

// ---------------------------------------------------------------------------
// Exchange-kernel overhead smoke (--smoke): every transport now delegates
// retry/acceptance/arbitration to core::run_exchange behind the
// ExchangeChannel seam. This measures what that seam costs per exchange by
// pairing it against a hand-inlined copy of the pre-kernel sequential loop.
// bench/ sits outside dnslint's src/ scope, so this deliberate second copy
// of the acceptance logic is legal here — it exists only as the A/B
// reference and must not migrate into src/.

/// Simulated-time observability clock, as the real transport installs one
/// per query (part of the faithful per-query cost below).
class InlineSimClock final : public obs::ClockSource {
 public:
  explicit InlineSimClock(const simnet::Simulator& sim) : sim_(sim) {}
  [[nodiscard]] std::uint64_t now_ns() const override {
    return static_cast<std::uint64_t>(sim_.now().count());
  }

 private:
  const simnet::Simulator& sim_;
};

/// The pre-kernel SimTransport attempt loop, inlined: bind an ephemeral
/// port, inject the datagram, step the simulator to the timeout horizon,
/// and apply the RFC 5452 accept/dedup/arbitrate sequence directly in the
/// datagram callback — no channel virtuals, no ledger, no policy driver.
/// The per-query scaffolding the old transport also paid for (scoped
/// simulated clock, tracing spans, a fresh mutable copy of the query, fresh
/// arbitration state, telemetry recording) is reproduced here: the kernel
/// path pays for all of it too, so leaving it out would bill it to the seam.
class InlineSimExchange final : private simnet::UdpApp {
 public:
  InlineSimExchange(simnet::Simulator& sim, simnet::Device& host,
                    const netbase::Endpoint& server)
      : sim_(sim), host_(host), server_(server) {}

  core::QueryResult run(const dnswire::Message& message, std::chrono::milliseconds timeout) {
    InlineSimClock clock(sim_);
    obs::ScopedClock clock_scope(&clock);
    obs::Span query_span("transport/query");
    dnswire::Message attempt_message = message;
    core::RetryTelemetry telemetry;
    sent_ = &attempt_message;
    result_ = core::QueryResult{};
    seen_ = decltype(seen_){};
    deadline_passed_ = false;

    obs::Span attempt_span("transport/attempt");
    port_ = next_port_++;
    if (next_port_ < 50000) next_port_ = 50000;
    host_.bind_udp(port_, this);
    auto source = host_.local_ip(server_.address.family());
    if (source) {
      simnet::UdpPacket packet;
      packet.src = *source;
      packet.dst = server_.address;
      packet.sport = port_;
      packet.dport = server_.port;
      packet.payload = dnswire::encode_message(attempt_message);
      packet.trace_id = sim_.next_trace_id();
      host_.send_local(sim_, std::move(packet));
    }
    bool* flag = &deadline_passed_;
    sim_.schedule(std::chrono::duration_cast<simnet::SimDuration>(timeout),
                  [flag]() { *flag = true; });
    while (!deadline_passed_ && sim_.step()) {
    }
    host_.unbind_udp(port_);
    sent_ = nullptr;
    telemetry.attempts = 1;
    if (!result_.answered()) ++telemetry.timeouts;
    result_.retry = telemetry;
    telemetry_.note(result_);
    core::note_transport_metrics(result_);
    return std::move(result_);
  }

 private:
  static std::uint64_t fnv(const std::uint8_t* data, std::size_t size) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) h = (h ^ data[i]) * 0x100000001b3ull;
    return h;
  }

  static std::vector<std::uint8_t> endpoint_key(const netbase::Endpoint& endpoint) {
    std::vector<std::uint8_t> key;
    if (endpoint.address.is_v4()) {
      key.push_back(4);
      auto bytes = endpoint.address.v4().to_bytes();
      key.insert(key.end(), bytes.begin(), bytes.end());
    } else {
      key.push_back(6);
      const auto& bytes = endpoint.address.v6().bytes();
      key.insert(key.end(), bytes.begin(), bytes.end());
    }
    key.push_back(static_cast<std::uint8_t>(endpoint.port >> 8));
    key.push_back(static_cast<std::uint8_t>(endpoint.port & 0xff));
    return key;
  }

  void on_datagram(simnet::Simulator&, simnet::Device&,
                   const simnet::UdpPacket& packet) override {
    if (packet.dport != port_) return;
    if (packet.kind == simnet::PacketKind::icmp_ttl_exceeded) return;
    auto response = dnswire::decode_message({packet.payload.data(), packet.payload.size()});
    if (!response) {
      ++result_.arbitration.malformed;
      return;
    }
    if (packet.src_endpoint() != server_) {
      ++result_.arbitration.spoof_suspected;
      return;
    }
    if (!dnswire::is_acceptable_response(*sent_, *response)) {
      ++result_.arbitration.spoof_suspected;
      return;
    }
    std::vector<std::uint8_t> key = endpoint_key(packet.src_endpoint());
    std::uint64_t hash = fnv(packet.payload.data(), packet.payload.size());
    for (const auto& [src, h] : seen_)
      if (h == hash && src == key) return;  // duplicate datagram
    seen_.emplace_back(std::move(key), hash);
    if (const auto* echoed = response->question())
      if (const auto* asked = sent_->question())
        if (!(echoed->name == asked->name)) ++result_.arbitration.case_mismatches;
    if (!result_.answered()) {
      result_.status = core::QueryResult::Status::answered;
      result_.response = *response;
    } else if (result_.response->flags.rcode != response->flags.rcode) {
      ++result_.arbitration.conflicts;
    }
    result_.all_responses.push_back(std::move(*response));
  }

  simnet::Simulator& sim_;
  simnet::Device& host_;
  netbase::Endpoint server_;
  std::uint16_t next_port_ = 50000;

  const dnswire::Message* sent_ = nullptr;
  core::QueryResult result_;
  core::TransportTelemetry telemetry_;
  std::vector<std::pair<std::vector<std::uint8_t>, std::uint64_t>> seen_;
  std::uint16_t port_ = 0;
  bool deadline_passed_ = false;
};

/// Committed pre-refactor medians (bench/baselines/BENCH_exchange_baseline.json,
/// recorded at 87baf32 on the development machine). Cross-machine, so the
/// comparison is informational; the paired ratio below is the gate.
constexpr double kBaselineSimExchangeNs = 5496.0;
constexpr double kBaselineFullPipelineNs = 213136.0;

int run_exchange_smoke(const char* json_path) {
  // Each side of a pair times 2,000 exchanges (about 9 ms), 31 pairs in all
  // (about 0.6 s). At 9 pairs x 200 exchanges (about 1.3 ms a side) the
  // cache refill after each switch of path weighed on every rep and single
  // runs spread from 1.04 to 1.15 around a 1.10 gate; at this size they
  // spread from about 0.96 to 1.08 (EXPERIMENTS.md, P8).
  constexpr int kPairs = 31;
  constexpr int kExchangesPerRep = 2000;
  constexpr double kMaxOverheadRatio = 1.10;

  atlas::ScenarioConfig config;
  atlas::Scenario scenario(config);
  const auto& quad9 = resolvers::PublicResolverSpec::get(resolvers::PublicResolverKind::quad9);
  netbase::Endpoint server{quad9.service_v4[0], netbase::kDnsPort};
  InlineSimExchange inline_exchange(scenario.sim(), scenario.host(), server);

  auto query = dnswire::make_chaos_query(1, dnswire::version_bind());
  auto kernel_rep = [&] {
    for (int i = 0; i < kExchangesPerRep; ++i) {
      query.id++;
      benchmark::DoNotOptimize(core::query_one(scenario.transport(), server, query));
    }
  };
  auto inline_rep = [&] {
    for (int i = 0; i < kExchangesPerRep; ++i) {
      query.id++;
      benchmark::DoNotOptimize(inline_exchange.run(query, std::chrono::milliseconds(3000)));
    }
  };

  // Warm both paths once, then time back-to-back pairs with the order
  // alternating so machine drift cancels out of the per-pair ratio.
  kernel_rep();
  inline_rep();
  std::vector<double> kernel_ns, inline_ns, ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double a, b;
    if (pair % 2 == 0) {
      a = dnslocate::bench::time_ms(kernel_rep);
      b = dnslocate::bench::time_ms(inline_rep);
    } else {
      b = dnslocate::bench::time_ms(inline_rep);
      a = dnslocate::bench::time_ms(kernel_rep);
    }
    kernel_ns.push_back(a * 1e6 / kExchangesPerRep);
    inline_ns.push_back(b * 1e6 / kExchangesPerRep);
    ratios.push_back(a / b);
  }
  double kernel_med = dnslocate::bench::median(kernel_ns);
  double inline_med = dnslocate::bench::median(inline_ns);
  double ratio_med = dnslocate::bench::median(ratios);

  // The full pipeline, for the informational baseline comparison.
  std::vector<double> pipeline_ns;
  for (int rep = 0; rep < 5; ++rep) {
    double ms = dnslocate::bench::time_ms([&] {
      atlas::ScenarioConfig pipeline_config;
      pipeline_config.isp_policy.middlebox_enabled = true;
      atlas::Scenario pipeline_scenario(pipeline_config);
      core::LocalizationPipeline pipeline(pipeline_scenario.pipeline_config());
      benchmark::DoNotOptimize(pipeline.run(pipeline_scenario.transport()));
    });
    pipeline_ns.push_back(ms * 1e6);
  }
  double pipeline_med = dnslocate::bench::median(pipeline_ns);

  bool ratio_ok = ratio_med <= kMaxOverheadRatio;
  dnslocate::bench::heading("exchange kernel overhead");
  std::printf("kernel exchange:   %8.0f ns median (%d pairs x %d exchanges)\n", kernel_med,
              kPairs, kExchangesPerRep);
  std::printf("inline reference:  %8.0f ns median\n", inline_med);
  std::printf("paired ratio:      %8.3f  (gate: <= %.2f) %s\n", ratio_med, kMaxOverheadRatio,
              ratio_ok ? "OK" : "FAIL");
  std::printf("vs baseline:       %8.3f  (informational; baseline %.0f ns at 87baf32)\n",
              kernel_med / kBaselineSimExchangeNs, kBaselineSimExchangeNs);
  std::printf("full pipeline:     %8.0f ns median (baseline %.0f ns, informational)\n",
              pipeline_med, kBaselineFullPipelineNs);

  if (json_path != nullptr) {
    jsonio::Object out;
    out["schema"] = "dnslocate.bench.exchange.v1";
    out["pairs"] = static_cast<std::uint64_t>(kPairs);
    out["exchanges_per_rep"] = static_cast<std::uint64_t>(kExchangesPerRep);
    out["kernel_exchange_ns_median"] = kernel_med;
    out["inline_exchange_ns_median"] = inline_med;
    out["paired_overhead_ratio"] = ratio_med;
    out["max_overhead_ratio"] = kMaxOverheadRatio;
    out["check_overhead_ratio"] = ratio_ok;
    out["baseline_sim_exchange_ns"] = kBaselineSimExchangeNs;
    out["baseline_full_pipeline_ns"] = kBaselineFullPipelineNs;
    out["vs_baseline_ratio_informational"] = kernel_med / kBaselineSimExchangeNs;
    out["full_pipeline_ns_median"] = pipeline_med;
    std::ofstream file(json_path);
    file << jsonio::Value(std::move(out)).dump() << "\n";
    std::printf("\nwrote %s\n", json_path);
  }
  return ratio_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (smoke) return run_exchange_smoke(json_path);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
