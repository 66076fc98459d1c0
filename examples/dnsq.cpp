// dnsq: a minimal dig-style query tool over the library's UDP engine.
//
//   dnsq [@server] name [type] [+chaos] [+ttl=N] [+timeout=MS] [+retry=N] [+short]
//
// Examples:
//   dnsq @1.1.1.1 id.server TXT +chaos        # the paper's location query
//   dnsq @9.9.9.9 version.bind TXT +chaos     # the §3.2 identity probe
//   dnsq @8.8.8.8 o-o.myaddr.l.google.com TXT
//   dnsq @8.8.8.8 example.com A +ttl=3        # TTL-limited (path probing)
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dnswire/encoder.h"
#include "sockets/udp_engine.h"

using namespace dnslocate;

namespace {

dnswire::RecordType parse_type(const std::string& text) {
  if (text == "A") return dnswire::RecordType::A;
  if (text == "AAAA") return dnswire::RecordType::AAAA;
  if (text == "TXT") return dnswire::RecordType::TXT;
  if (text == "CNAME") return dnswire::RecordType::CNAME;
  if (text == "NS") return dnswire::RecordType::NS;
  if (text == "PTR") return dnswire::RecordType::PTR;
  if (text == "SOA") return dnswire::RecordType::SOA;
  if (text == "ANY") return dnswire::RecordType::ANY;
  return dnswire::RecordType::A;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [@server] name [type] [+chaos] [+ttl=N] [+timeout=MS] [+retry=N]"
               " [+short]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  netbase::Endpoint server{*netbase::IpAddress::parse("1.1.1.1"), netbase::kDnsPort};
  std::string qname;
  dnswire::RecordType qtype = dnswire::RecordType::A;
  dnswire::RecordClass qclass = dnswire::RecordClass::IN;
  core::QueryOptions options;
  options.timeout = std::chrono::milliseconds(3000);
  bool short_output = false;
  bool have_type = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.size() > 1 && arg[0] == '@') {
      std::string target = arg.substr(1);
      if (auto endpoint = netbase::Endpoint::parse(target)) {
        server = *endpoint;  // "@127.0.0.1:5300" form
      } else if (auto addr = netbase::IpAddress::parse(target)) {
        server.address = *addr;
      } else {
        std::fprintf(stderr, "bad server address: %s\n", target.c_str());
        return 2;
      }
    } else if (arg == "+chaos") {
      qclass = dnswire::RecordClass::CH;
    } else if (arg == "+short") {
      short_output = true;
    } else if (arg.rfind("+ttl=", 0) == 0) {
      options.ttl = static_cast<std::uint8_t>(std::atoi(arg.c_str() + 5));
    } else if (arg.rfind("+timeout=", 0) == 0) {
      options.timeout = std::chrono::milliseconds(std::atoi(arg.c_str() + 9));
    } else if (arg.rfind("+retry=", 0) == 0) {
      int attempts = std::atoi(arg.c_str() + 7);
      if (attempts < 1) {
        std::fprintf(stderr, "bad +retry value: %s (want attempts >= 1)\n", arg.c_str() + 7);
        return 2;
      }
      options.retry = core::RetryPolicy::standard(static_cast<unsigned>(attempts));
    } else if (arg[0] == '+') {
      return usage(argv[0]);
    } else if (qname.empty()) {
      qname = arg;
    } else if (!have_type) {
      qtype = parse_type(arg);
      have_type = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (qname.empty()) return usage(argv[0]);

  auto name = dnswire::DnsName::parse(qname);
  if (!name) {
    std::fprintf(stderr, "bad name: %s\n", qname.c_str());
    return 2;
  }

  dnswire::Message query = dnswire::make_query(
      static_cast<std::uint16_t>(::getpid() & 0xffff), *name, qtype, qclass);
  sockets::UdpEngine engine;
  core::QueryResult result = core::query_one(engine, server, query, options);

  if (!result.answered()) {
    std::printf(";; no response from %s within %lld ms (%u attempt%s)\n",
                server.to_string().c_str(),
                static_cast<long long>(options.timeout.count()), result.retry.attempts,
                result.retry.attempts == 1 ? "" : "s");
    return 1;
  }
  if (short_output) {
    for (const auto& rr : result.response->answers) {
      if (auto* a = std::get_if<dnswire::ARecord>(&rr.rdata))
        std::printf("%s\n", a->address.to_string().c_str());
      else if (auto* aaaa = std::get_if<dnswire::AaaaRecord>(&rr.rdata))
        std::printf("%s\n", aaaa->address.to_string().c_str());
      else if (auto* txt = std::get_if<dnswire::TxtRecord>(&rr.rdata))
        std::printf("%s\n", txt->joined().c_str());
      else
        std::printf("%s\n", rr.to_string().c_str());
    }
    return 0;
  }
  std::printf(";; server %s, rtt %lld us%s", server.to_string().c_str(),
              static_cast<long long>(result.rtt.count()),
              result.replicated() ? ", REPLICATED (multiple responses!)" : "");
  if (result.retry.retries() > 0)
    std::printf(", answered on attempt %u", result.retry.attempts);
  std::printf("\n");
  std::fputs(result.response->to_string().c_str(), stdout);
  return 0;
}
