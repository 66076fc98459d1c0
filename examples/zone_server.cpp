// zone_server: serve a master-file zone over UDP on 127.0.0.1 — a pocket
// authoritative server built from the library's pieces. Useful as a test
// target for dnsq/live_probe and as a demonstration of the zone parser.
//
//   zone_server <zonefile> [--oneshot]
//
// --oneshot answers a single self-test query and exits (used in CI); the
// default serves until interrupted.
#include <csignal>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "dnswire/encoder.h"
#include "resolvers/resolver_behavior.h"
#include "resolvers/zone_parser.h"
#include "sockets/loopback_server.h"
#include "sockets/udp_engine.h"

using namespace dnslocate;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <zonefile> [--oneshot]\n", argv[0]);
    return 2;
  }
  bool oneshot = argc > 2 && std::string(argv[2]) == "--oneshot";

  std::ifstream input(argv[1]);
  if (!input) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  std::stringstream buffer;
  buffer << input.rdbuf();

  auto zones = std::make_shared<resolvers::ZoneStore>();
  auto parsed = resolvers::parse_master_file(buffer.str(), *zones);
  for (const auto& error : parsed.errors)
    std::fprintf(stderr, "warning: %s\n", error.to_string().c_str());
  std::printf("loaded %zu records from %s\n", parsed.records_added, argv[1]);

  resolvers::ResolverConfig config;
  config.software = resolvers::custom_string("dnslocate zone_server");
  config.zones = zones;
  sockets::LoopbackDnsServer server(
      std::make_shared<resolvers::ResolverBehavior>(config));
  std::printf("serving on %s\n", server.endpoint().to_string().c_str());

  if (oneshot) {
    // Self-test: resolve the first thing we can find via the socket path.
    sockets::UdpEngine engine;
    auto query = dnswire::make_query(1, *dnswire::DnsName::parse("version.bind"),
                                     dnswire::RecordType::TXT, dnswire::RecordClass::CH);
    core::QueryOptions options;
    options.timeout = std::chrono::milliseconds(1000);
    auto result = core::query_one(engine, server.endpoint(), query, options);
    if (!result.answered()) {
      std::fprintf(stderr, "self-test failed\n");
      return 1;
    }
    std::printf("self-test: version.bind -> \"%s\"\n",
                result.response->first_txt().value_or("?").c_str());
    return 0;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::printf("query it, e.g.: dnsq @127.0.0.1 <name> A   (Ctrl-C to stop)\n");
  while (g_stop == 0) {
    struct timespec delay{0, 100'000'000};
    nanosleep(&delay, nullptr);
  }
  std::printf("served %llu queries\n",
              static_cast<unsigned long long>(server.queries_served()));
  return 0;
}
