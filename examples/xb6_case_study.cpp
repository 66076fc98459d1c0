// §5 case study: how the Arris/Technicolor XB6's XDNS component uses DNAT
// to transparently intercept DNS — reconstructed packet by packet.
//
// We attach a trace sink to the simulator, send one query from the home
// host to Cloudflare (1.1.1.1), and print the full datapath: the DNAT
// rewrite at the CPE (the "role switch"), the XDNS/dnsmasq forwarder
// answering locally after consulting the ISP resolver, and conntrack
// restoring 1.1.1.1 as the response source — the spoofing that makes the
// interception invisible to the client.
#include <cstdio>

#include "atlas/scenario.h"
#include "core/pipeline.h"
#include "dnswire/debug_queries.h"
#include "simnet/pcap.h"

using namespace dnslocate;

int main() {
  atlas::ScenarioConfig home;
  home.cpe.kind = atlas::CpeStyle::Kind::xb6_buggy;
  home.isp_name = "comcast";
  home.asn = 7922;
  atlas::Scenario scenario(home);

  simnet::TraceSink trace;
  scenario.sim().set_trace(&trace);

  std::printf("=== XB6/XDNS case study: one query to Cloudflare DNS ===\n\n");
  auto query = dnswire::make_query(0xbeef, *dnswire::DnsName::parse("example.com"),
                                   dnswire::RecordType::A);
  netbase::Endpoint cloudflare{*netbase::IpAddress::parse("1.1.1.1"), netbase::kDnsPort};
  auto result = core::query_one(scenario.transport(), cloudflare, query);

  std::fputs(trace.render().c_str(), stdout);

  // The same trace as a standard capture, for Wireshark/tcpdump inspection.
  const char* pcap_path = "xb6_case_study.pcap";
  if (simnet::write_pcap_file(trace, pcap_path)) {
    std::printf("\n(wrote %zu frames to %s — open with wireshark/tcpdump)\n",
                simnet::pcap_packet_count(trace), pcap_path);
  }

  std::printf("\nthe client saw: %s\n",
              result.answered() ? result.response->to_string().c_str() : "timeout");
  std::printf("DNAT rewrites observed : %llu\n",
              static_cast<unsigned long long>(scenario.cpe_handles().nat->dnat_hits()));
  std::printf("spoofed (un-NAT) writes: %llu\n",
              static_cast<unsigned long long>(scenario.cpe_handles().nat->unnat_hits()));
  std::printf("queries the query's intended target (1.1.1.1) ever received: %s\n",
              trace.count(simnet::TraceEvent::dnat_rewritten) > 0 ? "none — diverted at the CPE"
                                                                  : "all of them");

  // Now run the full technique and show it pinpoints the CPE.
  scenario.sim().set_trace(nullptr);
  core::LocalizationPipeline pipeline(scenario.pipeline_config());
  auto verdict = pipeline.run(scenario.transport());
  std::printf("\nlocalization technique verdict: %s\n",
              std::string(to_string(verdict.location)).c_str());
  if (verdict.cpe_check && verdict.cpe_check->cpe.has_string())
    std::printf("XDNS forwarder version.bind string: \"%s\"\n",
                verdict.cpe_check->cpe.txt->c_str());
  return verdict.location == core::InterceptorLocation::cpe ? 0 : 1;
}
