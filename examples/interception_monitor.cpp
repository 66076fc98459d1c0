// interception_monitor: periodically re-run interception detection on the
// live network and report when the verdict changes — the deployable
// counterpart of the repository's longitudinal "firmware flip" experiment
// (a CPE update can silently start hijacking; this notices).
//
//   interception_monitor [--interval-s N] [--rounds N] [--cpe <public-ip>]
//
// With --rounds 1 it performs a single check and exits with a status code
// usable from cron/scripts: 0 = not intercepted, 3 = intercepted.
#include <ctime>

#include <cstdio>
#include <cstring>
#include <string>

#include "core/describe.h"
#include "core/pipeline.h"
#include "sockets/udp_engine.h"

using namespace dnslocate;

int main(int argc, char** argv) {
  int interval_s = 300;
  int rounds = 1;
  core::PipelineConfig config;
  config.detection.query.timeout = std::chrono::milliseconds(2000);
  config.run_transparency = false;  // keep each round light

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--interval-s") == 0 && i + 1 < argc) {
      interval_s = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cpe") == 0 && i + 1 < argc) {
      if (auto addr = netbase::IpAddress::parse(argv[++i])) config.cpe_public_ip = *addr;
    } else {
      std::fprintf(stderr, "usage: %s [--interval-s N] [--rounds N] [--cpe ip]\n", argv[0]);
      return 2;
    }
  }

  sockets::UdpEngine engine;
  core::LocalizationPipeline pipeline(config);
  std::string previous;
  bool last_intercepted = false;

  for (int round = 0; round < rounds || rounds <= 0; ++round) {
    auto verdict = pipeline.run(engine);
    std::string summary = core::summarize(verdict);
    last_intercepted = verdict.intercepted();

    if (summary != previous) {
      std::printf("[round %d] verdict changed: %s -> %s\n", round,
                  previous.empty() ? "(first run)" : previous.c_str(), summary.c_str());
      std::fputs(core::describe(verdict).c_str(), stdout);
      previous = summary;
    } else {
      std::printf("[round %d] unchanged: %s\n", round, summary.c_str());
    }
    std::fflush(stdout);

    if (round + 1 < rounds || rounds <= 0) {
      struct timespec delay{interval_s, 0};
      nanosleep(&delay, nullptr);
    }
  }
  return last_intercepted ? 3 : 0;
}
