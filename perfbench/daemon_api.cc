// daemon_api: an in-process MeasurementService behind an HttpServer on
// 127.0.0.1 (one worker, one thread per run), driven by a single-threaded
// closed-loop client that holds at most two connections. Each cycle it
// submits a small fleet plan, polls the run's status until it is terminal
// (interleaving the fleet list, /metrics and /healthz), reads /verdicts and
// /records, and now and then reads /records of a run already spilled past
// retain_terminal_runs, which reloads it from its journal. HTTP parsing,
// plan parsing and the manifest/journal/done writes get a visible share
// only here.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "atlas/fleet_json.h"
#include "atlas/journal.h"
#include "atlas/measurement.h"
#include "core/describe.h"
#include "jsonio/json.h"
#include "obs/metrics.h"
#include "report/aggregate.h"
#include "report/results_io.h"
#include "service/api.h"
#include "service/http.h"
#include "service/http_server.h"
#include "service/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dnslocate;
using namespace std::chrono_literals;

constexpr unsigned kRetainTerminalRuns = 4;
// The client waits this long between status polls, as a polling client
// would; it bounds the request rate (every request is a new connection, and
// the count must stay inside the ephemeral port range).
constexpr auto kPollInterval = 2ms;
// Every this many cycles, read /records of a run that has been spilled.
constexpr std::uint64_t kSpilledEvery = 4;
// Hard cap on requests per run, well inside the ephemeral port range.
constexpr std::uint64_t kMaxRequests = 25000;
constexpr const char* kRequestIdHeader = "X-Bench-Request";

// Probes per submitted plan (two orgs, 2:1). Large enough that a run's
// probes, not its fixed costs (state-file writes, status polling), own most
// of its turnaround.
constexpr int kPlanProbes = 480;
// The client cycles through this many plans (seeds), so each plan is a
// unit of work repeated every kPlans cycles.
constexpr std::uint64_t kPlans = 2;
// The route is the only layer timed inside a request, so the named layers
// explain only part of a request's latency (the rest is HTTP and TCP
// overhead the benchmark cannot time from outside the server). On this
// workload the layer-sum gate checks attribution: the routes explain at
// least a tenth of the latency (about three fifths measured) and never
// more than all of it.
constexpr double kLayerSumMin = 0.10;
// The history a restarted daemon recovers at construction.
constexpr std::uint64_t kHistoryRuns = 32;
constexpr int kHistoryProbes = 12;

std::string plan_json(std::uint64_t seed, int probes = kPlanProbes) {
  return R"({"seed": )" + std::to_string(seed) + R"(, "tenant": "bench", "ipv6_fraction": 0.5,
    "orgs": [{"org": "BenchNet", "asn": 64720, "country": "US", "probes": )" +
         std::to_string(probes * 2 / 3) + R"(,
              "cpe_xb6": 2, "cpe_dnsmasq": 2, "isp_allfour": 2, "external": 1},
             {"org": "CtrlNet", "asn": 64721, "country": "DE", "probes": )" +
         std::to_string(probes / 3) + R"(, "isp_block": 1}]})";
}

/// Span name of the route a request takes (string literals: spans keep the
/// pointer). The client labels its own latencies with the same names.
const char* route_span(std::string_view method, std::string_view path) {
  if (path == "/v1/fleets") return method == "POST" ? "route.submit" : "route.list";
  if (path == "/metrics") return "route.metrics";
  if (path == "/healthz") return "route.healthz";
  auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() && path.substr(path.size() - suffix.size()) == suffix;
  };
  if (ends_with("/verdicts")) return "route.verdicts";
  if (ends_with("/records")) return "route.records";
  return "route.status";
}

/// One client request on its own connection: connect, send, then (in
/// finish) read to EOF. Latency runs from before connect to the last byte.
struct Exchange {
  std::uint64_t id = 0;  // sent as X-Bench-Request; tags the route span
  const char* route = "";
  int fd = -1;
  Clock::time_point start;
  std::string wire;
  bool sent = false;
  std::string received;
};

struct Reply {
  int status = 0;  // 0 = socket or framing error
  std::string body;
  double ms = 0;
};

Exchange begin(std::uint16_t port, const std::string& method, const std::string& target,
               std::uint64_t request_id, const std::string& body = "") {
  Exchange ex;
  ex.id = request_id;
  ex.route = route_span(method, target);
  ex.wire = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" + kRequestIdHeader +
            ": " + std::to_string(request_id) + "\r\n";
  if (!body.empty())
    ex.wire += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  ex.wire += "Connection: close\r\n\r\n" + body;
  ex.start = Clock::now();
  ex.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ex.fd < 0) return ex;
  int one = 1;
  ::setsockopt(ex.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(ex.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) return ex;
  std::size_t off = 0;
  while (off < ex.wire.size()) {
    ssize_t n = ::send(ex.fd, ex.wire.data() + off, ex.wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return ex;
    off += static_cast<std::size_t>(n);
  }
  ex.sent = true;
  return ex;
}

bool decode_chunked(std::string_view wire, std::string& out) {
  std::size_t pos = 0;
  while (pos < wire.size()) {
    std::size_t eol = wire.find("\r\n", pos);
    if (eol == std::string_view::npos) return false;
    std::size_t size =
        std::strtoul(std::string(wire.substr(pos, eol - pos)).c_str(), nullptr, 16);
    pos = eol + 2;
    if (size == 0) return true;
    if (pos + size > wire.size()) return false;
    out.append(wire.substr(pos, size));
    pos += size + 2;
  }
  return false;
}

/// Read until the response head is complete (or the peer closes).
void read_head(Exchange& ex) {
  char buffer[4096];
  while (ex.sent && ex.received.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = ::recv(ex.fd, buffer, sizeof buffer, 0);
    if (n > 0) ex.received.append(buffer, static_cast<std::size_t>(n));
    else if (n == 0 || errno != EINTR) break;
  }
}

Reply finish(Exchange& ex) {
  Reply reply;
  std::string& wire = ex.received;
  if (ex.sent) {
    char buffer[64 * 1024];
    for (;;) {
      ssize_t n = ::recv(ex.fd, buffer, sizeof buffer, 0);
      if (n > 0) wire.append(buffer, static_cast<std::size_t>(n));
      else if (n == 0 || errno != EINTR) break;
    }
  }
  reply.ms = std::chrono::duration<double, std::milli>(Clock::now() - ex.start).count();
  if (ex.fd >= 0) ::close(ex.fd);
  ex.fd = -1;
  std::size_t head_end = wire.find("\r\n\r\n");
  if (!ex.sent || head_end == std::string::npos || wire.compare(0, 5, "HTTP/") != 0)
    return reply;
  std::string_view head(wire.data(), head_end);
  std::string_view raw(wire.data() + head_end + 4, wire.size() - head_end - 4);
  if (head.find("Transfer-Encoding: chunked") != std::string_view::npos) {
    if (!decode_chunked(raw, reply.body)) return reply;
  } else {
    reply.body.assign(raw);
  }
  reply.status = std::atoi(wire.c_str() + 9);
  return reply;
}

/// One CPU for the client and the server's event thread, the others for
/// the service's workers (with a single CPU, everything shares it). Empty
/// sets, and no pinning, when the allowed CPUs cannot be read.
struct Placement {
  cpu_set_t client;
  cpu_set_t workers;
  int client_cpu = -1;
};

Placement plan_placement() {
  Placement placement;
  CPU_ZERO(&placement.client);
  CPU_ZERO(&placement.workers);
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return placement;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && placement.client_cpu < 0; --cpu)
    if (CPU_ISSET(cpu, &allowed)) placement.client_cpu = cpu;
  if (placement.client_cpu < 0) return placement;
  CPU_SET(placement.client_cpu, &placement.client);
  placement.workers = allowed;
  if (CPU_COUNT(&allowed) > 1) CPU_CLR(placement.client_cpu, &placement.workers);
  return placement;
}

void pin_self(const cpu_set_t& cpus) {
  if (CPU_COUNT(&cpus) > 0) ::pthread_setaffinity_np(::pthread_self(), sizeof cpus, &cpus);
}

std::string json_string(const std::string& body, const char* key) {
  auto value = jsonio::parse(body);
  if (!value || !value->is_object()) return "";
  const jsonio::Value& field = (*value)[key];
  return field.is_string() ? field.as_string() : "";
}

/// The closed-loop client and everything it records.
class Client {
 public:
  Client(std::uint16_t port, bool traced) : port_(port), traced_(traced) {}

  Reply request(const std::string& method, const std::string& target, int expect,
                const std::string& body = "") {
    Exchange ex = begin(port_, method, target, ++request_id_, body);
    Reply reply = finish(ex);
    note(ex, reply, expect);
    return reply;
  }

  /// /verdicts on one connection, then /healthz on a second once the
  /// stream's head is in. The server pumps a stream only when its poll loop
  /// wakes (or its tick expires); the second connection's accept and read
  /// are the two wakes that carry the stream's lines and its final chunk.
  Reply verdicts_with_healthz(const std::string& id) {
    Exchange stream = begin(port_, "GET", "/v1/fleets/" + id + "/verdicts", ++request_id_);
    read_head(stream);
    Exchange health = begin(port_, "GET", "/healthz", ++request_id_);
    Reply health_reply = finish(health);
    Reply stream_reply = finish(stream);
    note(health, health_reply, 200);
    note(stream, stream_reply, 200);
    return stream_reply;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;
  std::map<std::uint64_t, double> latency_by_id;  // traced runs only
  std::map<int, std::uint64_t> by_status;
  std::map<std::string, std::vector<double>> by_route;
  std::vector<std::string> wires;  // request bytes, traced runs only

 private:
  void note(const Exchange& ex, const Reply& reply, int expect) {
    ++attempted;
    if (reply.status != expect) ++failed;
    ++by_status[reply.status];
    latency_ms.push_back(reply.ms);
    by_route[ex.route].push_back(reply.ms);
    if (traced_) {
      latency_by_id[ex.id] = reply.ms;
      wires.push_back(ex.wire);
    }
  }

  std::uint16_t port_;
  bool traced_;
  std::uint64_t request_id_ = 0;
};

}  // namespace

Result run_daemon_api(const Args& args) {
  Result result;
  const std::string history_dir = make_fresh_dir(args.work_dir, "daemon-history");
  const std::string state_dir = make_fresh_dir(args.work_dir, "daemon-state");
  print_host(args, state_dir);
  std::printf("daemon workers=1 run_threads=1 retain_terminal_runs=%u poll_interval_ms=%lld "
              "spilled_read_every=%llu cycles\n",
              kRetainTerminalRuns, static_cast<long long>(kPollInterval.count()),
              static_cast<unsigned long long>(kSpilledEvery));

  // Live /metrics, as the daemon enables it before any worker exists.
  obs::Config obs_config;
  obs_config.metrics = true;
  obs::enable(obs_config);

  service::ServiceConfig config;
  config.state_dir = history_dir;
  config.workers = 1;
  config.run_threads = 1;
  config.retain_terminal_runs = kRetainTerminalRuns;

  std::unique_ptr<service::MeasurementService> svc;
  std::unique_ptr<service::HttpServer> server;
  auto handler = [&svc](const service::HttpRequest& request) {
    const std::string id = [&] {
      auto it = request.headers.find("x-bench-request");
      return it == request.headers.end() ? std::string("0") : it->second;
    }();
    trace::Span span(route_span(request.method, request.path),
                     std::strtoull(id.c_str(), nullptr, 10));
    return service::route_request(*svc, request);
  };

  // History: a daemon that has already served a campaign of small runs, so
  // the recovery scan at construction has finished runs to register. It
  // stays untouched in history_dir; the measured daemon runs on a copy.
  {
    service::MeasurementService history(config);
    std::vector<std::string> ids;
    for (std::uint64_t i = 0; i < kHistoryRuns; ++i) {
      auto submitted = history.submit(plan_json(args.seed * 7919 + i, kHistoryProbes));
      if (submitted.status == 202) ids.push_back(submitted.id);
    }
    for (const std::string& id : ids)
      while (true) {
        auto status = history.status(id);
        if (!status || (status->state != service::RunState::queued &&
                        status->state != service::RunState::running))
          break;
        std::this_thread::sleep_for(1ms);
      }
  }

  // Set-up: service construction (with its state-dir recovery scan over the
  // history) plus the server bind; the median is setup_s. Threads take the
  // CPU mask of the thread that starts them: the service's workers get every
  // CPU but one, the server's event thread shares that one with the client
  // (this thread). A request then hands the CPU from client to server and
  // back instead of waking an idle vCPU, whose latency moved latency_ms_p50
  // by a third between runs. A spare daemon is set up on history_dir (and
  // shut down) 201 times here and once more after every cycle, so the
  // samples span the whole run; the measured daemon is set up the same way
  // on a copy of the history.
  const Placement placement = plan_placement();
  std::vector<double> setup_s;
  auto set_up = [&](const service::ServiceConfig& at) {
    pin_self(placement.workers);
    auto start = Clock::now();
    auto built = std::make_unique<service::MeasurementService>(at);
    double elapsed = seconds_since(start);
    pin_self(placement.client);
    start = Clock::now();
    auto bound = std::make_unique<service::HttpServer>(service::HttpServer::Config{}, handler);
    setup_s.push_back(elapsed + seconds_since(start));
    return std::make_pair(std::move(built), std::move(bound));  // stops server, then service
  };
  for (int i = 0; i < 201; ++i) (void)set_up(config);
  std::filesystem::copy(history_dir, state_dir, std::filesystem::copy_options::recursive);
  service::ServiceConfig measured_config = config;
  measured_config.state_dir = state_dir;
  std::tie(svc, server) = set_up(measured_config);
  std::printf("placement client_and_event_cpu=%d worker_cpus=%d\n", placement.client_cpu,
              CPU_COUNT(&placement.workers));

  struct Run {
    std::string id;
    std::string plan;
    std::uint64_t records_hash = 0;
    std::size_t probes = 0;
  };
  std::vector<Run> runs;
  std::uint64_t plan_seed = args.seed * 1000003ull;
  std::size_t spilled_reads = 0, spilled_mismatches = 0, verdict_mismatches = 0;

  struct Phase {
    double wall_s = 0, cpu_s = 0;
    std::size_t probes = 0, runs = 0;
    std::uint64_t fsyncs = 0;
    // By plan, one repeat per cycle: submit to the last byte of /records.
    Repeats cycle_s, cycle_cpu_s, turnaround_ms;
    std::vector<std::size_t> plan_probes;  // by plan
  };
  const std::uint64_t first_plan_seed = plan_seed + 1;
  plan_seed += kPlans;

  auto run_phase = [&](double budget_s, bool traced) {
    Phase phase;
    Client client(server->port(), traced);
    trace::set_enabled(traced);
    const std::uint64_t fsync0 = fsync_count();
    const double cpu0 = process_cpu_s();
    const auto start = Clock::now();
    std::uint64_t cycle = 0;
    static const char* const kSide[] = {"/v1/fleets", "/metrics", "/healthz"};
    while ((seconds_since(start) < budget_s || cycle < kPlans) &&
           client.attempted < kMaxRequests) {
      const std::uint64_t plan = cycle % kPlans;
      Run run;
      run.plan = plan_json(first_plan_seed + plan);
      const double cycle_cpu0 = process_cpu_s();
      const auto submitted = Clock::now();
      Reply posted = client.request("POST", "/v1/fleets", 202, run.plan);
      run.id = json_string(posted.body, "id");
      if (run.id.empty()) break;
      std::string state;
      for (std::uint64_t poll = 0;; ++poll) {
        Reply status = client.request("GET", "/v1/fleets/" + run.id, 200);
        state = json_string(status.body, "state");
        if (status.status != 200 || (state != "queued" && state != "running")) break;
        if (poll % 2 == 1) client.request("GET", kSide[(poll / 2) % 3], 200);
        std::this_thread::sleep_for(kPollInterval);
      }
      phase.turnaround_ms.add(
          plan, std::chrono::duration<double, std::milli>(Clock::now() - submitted).count());
      if (state != "completed") break;

      Reply verdicts = client.verdicts_with_healthz(run.id);
      Reply records = client.request("GET", "/v1/fleets/" + run.id + "/records", 200);
      run.probes = static_cast<std::size_t>(std::count(verdicts.body.begin(),
                                                       verdicts.body.end(), '\n'));
      const std::size_t record_lines = static_cast<std::size_t>(
          std::count(records.body.begin(), records.body.end(), '\n'));
      if (run.probes == 0 || run.probes != record_lines) ++verdict_mismatches;
      run.records_hash = fnv1a(records.body);
      phase.cycle_s.add(plan, seconds_since(submitted));
      phase.cycle_cpu_s.add(plan, process_cpu_s() - cycle_cpu0);
      if (phase.plan_probes.size() <= plan) phase.plan_probes.resize(plan + 1);
      phase.plan_probes[plan] = run.probes;
      phase.probes += run.probes;
      ++phase.runs;
      runs.push_back(run);

      if (++cycle % kSpilledEvery == 0 && runs.size() > kRetainTerminalRuns + 1) {
        const Run& old = runs[runs.size() - kRetainTerminalRuns - 2];
        if (traced) {
          // The journal reload a spilled read makes the service do, timed here.
          trace::Span span("atlas.load_journal");
          (void)atlas::load_journal(state_dir + "/" + old.id + ".journal");
        }
        Reply again = client.request("GET", "/v1/fleets/" + old.id + "/records", 200);
        ++spilled_reads;
        if (fnv1a(again.body) != old.records_hash) ++spilled_mismatches;
      }
      trace::set_enabled(false);
      (void)set_up(config);
      trace::set_enabled(traced);
    }
    phase.wall_s = seconds_since(start);
    phase.cpu_s = process_cpu_s() - cpu0;
    phase.fsyncs = fsync_count() - fsync0;
    trace::set_enabled(false);
    result.attempted += client.attempted;
    result.failed += client.failed;
    return std::make_pair(phase, std::move(client));
  };

  auto [plain, plain_client] = run_phase(args.trace ? args.seconds / 2 : args.seconds, false);
  Phase traced;
  Client traced_client(0, true);
  if (args.trace) std::tie(traced, traced_client) = run_phase(args.seconds / 2, true);

  // Replays of the in-process layers, traced runs only: the parser on each
  // request's wire bytes, the plan parser on each body, direct submits, and
  // the record codecs and aggregates over journals the daemon wrote.
  std::map<std::string, double> m;
  if (args.trace) {
    trace::set_enabled(true);
    for (const std::string& wire : traced_client.wires) {
      trace::Span span("service.http_parse");
      service::RequestParser parser;
      parser.feed(wire);
    }
    for (std::size_t i = 0; i < traced.runs; ++i) {
      trace::Span span("jsonio.parse_plan");
      (void)atlas::fleet_from_json(runs[runs.size() - 1 - i].plan);
    }
    // Direct submits; the service drains them when it is destroyed below.
    for (int i = 0; i < 8; ++i) {
      trace::Span span("service.submit");
      (void)svc->submit(plan_json(++plan_seed));
    }
    auto timed = [](const char* name, auto&& call) {
      trace::Span span(name);
      (void)call();
    };
    std::size_t journal_bytes = 0, journal_records = 0;
    Counts counts;
    for (std::size_t i = 0; i < traced.runs && i < 32; ++i) {
      const Run& run = runs[runs.size() - 1 - i];
      const std::string path = state_dir + "/" + run.id + ".journal";
      struct stat info {};
      auto loaded = atlas::load_journal(path);
      if (!loaded.ok() || ::stat(path.c_str(), &info) != 0) continue;
      atlas::MeasurementRun measured;
      measured.records = std::move(loaded.records);
      journal_bytes += static_cast<std::size_t>(info.st_size);
      journal_records += measured.records.size();
      counts.add(measured);
      for (const auto& record : measured.records) {
        timed("atlas.journal_record_dump", [&] { return atlas::journal_record_dump(record); });
        timed("core.describe", [&] { return core::describe(record.verdict); });
        timed("report.probe_to_json", [&] { return report::probe_to_json(record); });
      }
      timed("report.run_to_jsonl", [&] { return report::run_to_jsonl(measured); });
      timed("report.aggregate", [&] {
        (void)report::accuracy_matrix(measured);
        return report::run_census(measured);
      });
    }
    trace::set_enabled(false);
    m["atlas.journal_bytes_per_probe"] =
        journal_records ? static_cast<double>(journal_bytes) / journal_records : 0.0;
    counts.fill(m);
  }

  server.reset();  // joins the event thread before its spans are read
  svc.reset();

  // Byte identity, outside the timed phase: the first run's /records against
  // an in-process run_fleet of the same plan with the service's options.
  bool identical = false;
  if (!runs.empty()) {
    auto parsed = atlas::fleet_from_json(runs.front().plan);
    atlas::MeasurementOptions options;
    options.strip_raw_responses = true;
    options.threads = 1;
    identical = parsed.ok() &&
                fnv1a(report::run_to_jsonl(atlas::run_fleet(parsed.generate(), options))) ==
                    runs.front().records_hash;
  }
  std::printf("runs=%zu requests=%llu spilled_reads=%zu fsyncs=%llu\n", runs.size(),
              static_cast<unsigned long long>(result.attempted), spilled_reads,
              static_cast<unsigned long long>(plain.fsyncs + traced.fsyncs));
  result.check(identical, "/records byte-identical to an in-process run_fleet");
  result.check(spilled_reads > 0 && spilled_mismatches == 0,
               "spilled runs reload to the same /records bytes");
  result.check(verdict_mismatches == 0, "/verdicts has one line per record");
  result.check(result.failed == 0, "every request answered with its expected status");
  result.check(plain.runs > 0, "runs completed in the measured phase");

  for (const auto& [status, count] : plain_client.by_status)
    std::printf("status %d: %llu\n", status, static_cast<unsigned long long>(count));
  for (const auto& [route, samples] : plain_client.by_route)
    std::printf("%-16s requests=%zu p50_ms=%.3f max_ms=%.3f\n", route.c_str(), samples.size(),
                median(samples), *std::max_element(samples.begin(), samples.end()));
  // Each plan is a unit repeated once every kPlans cycles and counts at its
  // fastest repeat (see fastest): probes/s and CPU per probe over one cycle
  // through the plans, and the median plan's turnaround. Request latency is
  // taken over every request as measured.
  const double probes = static_cast<double>(plain.probes);
  double plan_probes = 0;
  for (std::size_t n : plain.plan_probes) plan_probes += static_cast<double>(n);
  std::printf("fastest repeats over %zu runs of %zu plans; totals: %.0f probes in "
              "%.3f s, %.3f CPU s\n",
              plain.runs, plain.plan_probes.size(), probes, plain.wall_s, plain.cpu_s);
  const double tail_ms = report_end_to_end(
      result, {setup_s, plan_probes / plain.cycle_s.fastest_sum(),
               plain.cycle_cpu_s.fastest_sum() * 1e3 / plan_probes, plain_client.latency_ms,
               plain.turnaround_ms.fastest()});

  if (args.trace) {
    auto stats = trace::layer_stats();
    const double requests = static_cast<double>(traced_client.attempted);
    auto mean_us = [&](const char* name) {
      const auto& s = stats[name];
      return s.count ? s.total_s / static_cast<double>(s.count) * 1e6 : 0.0;
    };
    m["service.http_parse_us"] = mean_us("service.http_parse");
    m["service.route_us.submit"] = mean_us("route.submit");
    m["service.route_us.list"] = mean_us("route.list");
    m["service.route_us.status"] = mean_us("route.status");
    m["service.route_us.verdicts"] = mean_us("route.verdicts");
    m["service.route_us.records"] = mean_us("route.records");
    m["service.route_us.metrics"] = mean_us("route.metrics");
    m["service.route_us.healthz"] = mean_us("route.healthz");
    m["service.submit_us"] = mean_us("service.submit");
    m["jsonio.parse_plan_us"] = mean_us("jsonio.parse_plan");
    m["atlas.journal_record_dump_us"] = mean_us("atlas.journal_record_dump");
    m["atlas.journal_reload_ms"] = mean_us("atlas.load_journal") / 1e3;
    m["core.describe_us"] = mean_us("core.describe");
    m["report.probe_to_json_us"] = mean_us("report.probe_to_json");
    m["report.run_to_jsonl_ms"] = mean_us("report.run_to_jsonl") / 1e3;
    m["report.aggregate_ms"] = mean_us("report.aggregate") / 1e3;
    m["service.fsyncs_per_run"] =
        traced.runs ? static_cast<double>(traced.fsyncs) / static_cast<double>(traced.runs) : 0;
    for (const auto& [status, count] : traced_client.by_status) {
      const std::string key = status == 200 || status == 202
                                  ? "service.requests." + std::to_string(status)
                                  : "service.requests.other";
      m[key] += static_cast<double>(count);
    }
    // Attribute each in-server route span to its request by id. The route
    // is the only layer timed inside a request; the rest of the latency the
    // client sees (connect, the server loop's accept/read/write, kernel TCP)
    // is reported as service.http_overhead_ms, not counted as explained.
    std::map<std::uint64_t, double> route_s;
    for (const char* name : {"route.submit", "route.list", "route.status", "route.verdicts",
                             "route.records", "route.metrics", "route.healthz"})
      for (const auto& [id, s] : trace::unit_totals(name)) route_s[id] += s;
    double latency_s = 0, explained_s = 0;
    std::size_t attributed = 0;
    for (const auto& [id, ms] : traced_client.latency_by_id) {
      latency_s += ms / 1e3;
      auto it = route_s.find(id);
      if (it == route_s.end() || it->second > ms / 1e3) continue;
      ++attributed;
      explained_s += it->second;
    }
    const std::size_t sent = traced_client.latency_by_id.size();
    std::printf("route spans attributed to %zu of %zu requests\n", attributed, sent);
    result.check(sent > 0 && attributed * 100 >= sent * 99,
                 "route span attributed to >= 99% of requests, within their latency");
    m["service.http_overhead_ms"] =
        requests > 0 ? (latency_s - explained_s) / requests * 1e3 : 0;
    m["latency_ms_tail"] = tail_ms;
    m["trace.layer_sum_ratio"] = latency_s > 0 ? explained_s / latency_s : 0.0;
    m["trace.overhead"] =
        (traced.wall_s / static_cast<double>(traced.probes)) / (plain.wall_s / probes) - 1.0;
    emit_layers(result, m, kLayerSumMin);
  }
  remove_tree(state_dir);
  remove_tree(history_dir);
  return result;
}

}  // namespace perfbench
