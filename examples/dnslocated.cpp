// dnslocated: the resident measurement service. A long-lived daemon hosting
// the JSON control plane over the fleet runtime — submit fleet plans over
// HTTP, watch verdicts stream as probes complete, scrape live metrics, and
// survive restarts: every accepted run has a durable manifest + checkpoint
// journal, so `kill -9` mid-campaign costs at most the last journal batch
// and the next start resumes exactly where the journal ends (status shows
// `recovered: true`).
//
// Usage: dnslocated --state-dir DIR [--port N] [flags]
//   --state-dir DIR        durable run state (manifests, journals, markers);
//                          scanned for unfinished runs at startup (required)
//   --port N               listen port on 127.0.0.1 (default 0 = ephemeral)
//   --port-file PATH       write the bound port (test/script discovery)
//   --workers N            concurrent fleet runs (default 2)
//   --tenant-cap N         active runs per tenant before 429 (default 2)
//   --max-probes N         largest admissible fleet (default 20000)
//   --run-threads N        worker shards within each run (default 1; see
//                          MeasurementOptions::shards)
//   --probe-deadline-ms N  per-probe wall-clock budget (default none)
//
// Quickstart (see README.md for the full curl walkthrough):
//   dnslocated --state-dir /tmp/dns-state --port 8053 &
//   curl -d '{"seed":7,"orgs":[{"org":"X","asn":64500,"probes":100}]}'
//        http://127.0.0.1:8053/v1/fleets       (one command; line split here)
//   curl http://127.0.0.1:8053/v1/fleets/run-000001/verdicts
//
// SIGINT/SIGTERM drain gracefully (the shared handler in cli_common.h):
// in-flight probes finish, journals are fsync'd, interrupted runs stay
// unmarked so the next start resumes them, and the process exits 0.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "cli_common.h"
#include "obs/metrics.h"
#include "service/api.h"
#include "service/http_server.h"
#include "service/service.h"

using namespace dnslocate;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: dnslocated --state-dir DIR [--port N] [--port-file PATH]\n"
               "                  [--workers N] [--tenant-cap N] [--max-probes N]\n"
               "                  [--run-threads N] [--probe-deadline-ms N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  service::ServiceConfig config;
  service::HttpServer::Config http;
  const char* port_file = nullptr;

  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = value("--state-dir")) {
      config.state_dir = v;
    } else if (const char* v2 = value("--port")) {
      http.port = static_cast<std::uint16_t>(std::atoi(v2));
    } else if (const char* v3 = value("--port-file")) {
      port_file = v3;
    } else if (const char* v4 = value("--workers")) {
      config.workers = static_cast<unsigned>(std::atol(v4));
    } else if (const char* v5 = value("--tenant-cap")) {
      config.tenant_cap = static_cast<std::size_t>(std::atol(v5));
    } else if (const char* v6 = value("--max-probes")) {
      config.max_probes = static_cast<std::size_t>(std::atol(v6));
    } else if (const char* v7 = value("--run-threads")) {
      config.run_threads = static_cast<unsigned>(std::atol(v7));
    } else if (const char* v8 = value("--probe-deadline-ms")) {
      config.probe_deadline = std::chrono::milliseconds(std::atol(v8));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage();
      return 2;
    }
  }
  if (config.state_dir.empty()) {
    usage();
    return 2;
  }

  // Live metrics for /metrics: enabled before any worker thread exists.
  obs::Config obs_config;
  obs_config.metrics = true;
  obs::enable(obs_config);

  // Graceful drain on SIGINT/SIGTERM — the same handler the CLI examples
  // install, firing the same kind of run-level CancelToken.
  core::CancelToken shutdown = examples::install_signal_drain();

  try {
    service::MeasurementService service(config);
    service::HttpServer server(http, [&service](const service::HttpRequest& request) {
      return service::route_request(service, request);
    });

    if (port_file != nullptr) {
      std::ofstream out(port_file);
      out << server.port() << "\n";
    }
    std::printf("dnslocated listening on 127.0.0.1:%u (state: %s, recovered %zu runs)\n",
                static_cast<unsigned>(server.port()), config.state_dir.c_str(),
                service.recovered_runs());
    std::fflush(stdout);

    while (!shutdown.cancelled())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::printf("dnslocated: draining (in-flight probes finish, journals sync)\n");
    std::fflush(stdout);
    service.drain();   // finish + journal in-flight work; keep manifests unmarked
    server.stop();     // then stop answering
    std::printf("dnslocated: clean drain complete\n");
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dnslocated: %s\n", e.what());
    return 1;
  }
}
