// live_probe: run the paper's technique on the *real* network this host is
// on, over plain UDP sockets — the deployable version of the tool. Each
// stage's queries fan out together on sockets::UdpEngine, so a probe waits
// for its slowest query rather than the sum of all of them.
//
//   live_probe [--cpe <public-ip>] [--timeout-ms N] [--no-v6]
//
// Without --cpe, step 2 (the CPE check) is skipped and CPE interception
// cannot be distinguished from ISP interception; the public IP of your home
// router is usually what a "what is my IP" service reports.
//
// In an offline or firewalled environment every query times out, which the
// technique conservatively reports as "not intercepted" (§3.1).
#include <cstdio>
#include <cstring>
#include <string>

#include "core/describe.h"
#include "core/pipeline.h"
#include "sockets/udp_engine.h"

using namespace dnslocate;

int main(int argc, char** argv) {
  core::PipelineConfig config;
  int timeout_ms = 2000;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cpe") == 0 && i + 1 < argc) {
      auto addr = netbase::IpAddress::parse(argv[++i]);
      if (!addr) {
        std::fprintf(stderr, "bad --cpe address\n");
        return 2;
      }
      config.cpe_public_ip = *addr;
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      timeout_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-v6") == 0) {
      config.detection.test_v6 = false;
    } else {
      std::fprintf(stderr, "usage: %s [--cpe <public-ip>] [--timeout-ms N] [--no-v6]\n",
                   argv[0]);
      return 2;
    }
  }
  config.detection.query.timeout = std::chrono::milliseconds(timeout_ms);
  config.cpe_check.query.timeout = std::chrono::milliseconds(timeout_ms);
  config.bogon.query.timeout = std::chrono::milliseconds(timeout_ms);
  config.transparency.query.timeout = std::chrono::milliseconds(timeout_ms);

  sockets::UdpEngine engine;
  core::LocalizationPipeline pipeline(config);
  std::printf("probing the four public resolvers with location queries...\n");
  core::ProbeVerdict verdict = pipeline.run(engine);
  std::fputs(core::describe(verdict).c_str(), stdout);
  return 0;
}

namespace {
// The manual rendering below is kept as reference for building custom
// reports from the verdict structs; core::describe() above covers the
// common case.
[[maybe_unused]] void manual_render(const core::ProbeVerdict& verdict) {

  for (const auto& probe : verdict.detection.probes) {
    std::printf("  %-15s %-28s -> %-30s [%s]\n",
                std::string(to_string(probe.kind)).c_str(),
                probe.server.to_string().c_str(), probe.display.c_str(),
                std::string(to_string(probe.verdict)).c_str());
  }

  if (verdict.cpe_check) {
    std::printf("\nversion.bind comparison:\n  CPE -> \"%s\"\n",
                verdict.cpe_check->cpe.display.c_str());
    for (const auto& [kind, obs] : verdict.cpe_check->resolver_answers)
      std::printf("  %-15s -> \"%s\"\n", std::string(to_string(kind)).c_str(),
                  obs.display.c_str());
  } else if (verdict.intercepted()) {
    std::printf("\n(no --cpe address given: skipping the CPE check)\n");
  }

  if (verdict.bogon) {
    std::printf("\nbogon probes: v4 %s, v6 %s\n", verdict.bogon->v4.a_display.c_str(),
                verdict.bogon->v6.tested ? verdict.bogon->v6.a_display.c_str() : "(untested)");
  }

  std::printf("\nverdict: %s\n", std::string(to_string(verdict.location)).c_str());
  if (verdict.transparency)
    std::printf("transparency: %s\n",
                std::string(to_string(verdict.transparency->overall)).c_str());
}
}  // namespace
