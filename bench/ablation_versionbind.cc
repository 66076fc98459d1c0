// Ablation A1 (Appendix A): why the CPE check needs version.bind rather
// than an ordinary A-record query. We implement the naive variant — compare
// answers for example.com from the CPE's public IP and from the public
// resolvers — and show it misclassifies a benign open-port CPE behind an
// ISP interceptor, while the version.bind comparison does not.
#include "atlas/scenario.h"
#include "bench_util.h"
#include "dnswire/debug_queries.h"
#include "report/table.h"

using namespace dnslocate;

namespace {

/// The naive Appendix-A strawman: "CPE is the interceptor if the A-record
/// answer from the CPE's public IP equals the answer from the resolver."
bool naive_arecord_says_cpe(core::AsyncQueryTransport& engine,
                            const netbase::IpAddress& cpe_public_ip) {
  auto example = *dnswire::DnsName::parse("example.com");
  auto ask = [&](const netbase::Endpoint& server) -> std::optional<netbase::IpAddress> {
    auto query = dnswire::make_query(0x7a7a, example, dnswire::RecordType::A);
    auto result = core::query_one(engine, server, query);
    if (!result.answered()) return std::nullopt;
    return result.response->first_address();
  };

  auto from_cpe = ask({cpe_public_ip, netbase::kDnsPort});
  if (!from_cpe) return false;
  const auto& spec = resolvers::PublicResolverSpec::get(resolvers::PublicResolverKind::google);
  auto from_resolver = ask({spec.service_v4[0], netbase::kDnsPort});
  return from_resolver && *from_cpe == *from_resolver;
}

struct Row {
  std::string scenario;
  std::string truth;
  bool naive_cpe;
  bool versionbind_cpe;
  bool truth_cpe;
};

}  // namespace

int main() {
  bench::heading("Ablation A1: A-record comparison vs version.bind comparison");

  std::vector<Row> rows;
  struct Case {
    std::string label;
    atlas::CpeStyle::Kind cpe;
    bool middlebox;
  };
  const Case cases[] = {
      {"benign open-port CPE + ISP interceptor", atlas::CpeStyle::Kind::benign_open_dnsmasq,
       true},
      {"intercepting CPE (dnsmasq DNAT)", atlas::CpeStyle::Kind::intercept_dnsmasq, false},
      {"benign open-port CPE, no interception", atlas::CpeStyle::Kind::benign_open_dnsmasq,
       false},
      {"XB6 with the XDNS bug", atlas::CpeStyle::Kind::xb6_buggy, false},
  };

  bool versionbind_all_correct = true;
  bool naive_made_the_appendix_a_error = false;

  for (const Case& c : cases) {
    atlas::ScenarioConfig config;
    config.cpe.kind = c.cpe;
    config.isp_policy.middlebox_enabled = c.middlebox;
    atlas::Scenario scenario(config);

    bool naive = naive_arecord_says_cpe(scenario.transport(), scenario.cpe_wan_v4());

    core::LocalizationPipeline pipeline(scenario.pipeline_config());
    auto verdict = pipeline.run(scenario.transport());
    bool vb = verdict.location == core::InterceptorLocation::cpe;

    bool truth_cpe = scenario.ground_truth().cpe_intercepts;
    if (vb != truth_cpe &&
        scenario.ground_truth().expected != core::InterceptorLocation::not_intercepted)
      versionbind_all_correct = false;
    if (c.middlebox && c.cpe == atlas::CpeStyle::Kind::benign_open_dnsmasq && naive)
      naive_made_the_appendix_a_error = true;

    rows.push_back(Row{c.label, std::string(to_string(scenario.ground_truth().expected)), naive,
                       vb, truth_cpe});
  }

  report::TextTable table(
      {"Scenario", "Ground truth", "A-record method says CPE", "version.bind method says CPE"});
  auto mark = [](bool said_cpe, bool truth_cpe) {
    std::string cell = said_cpe ? "yes" : "no";
    if (said_cpe != truth_cpe) cell += " (wrong)";
    return cell;
  };
  for (const Row& row : rows)
    table.add_row({row.scenario, row.truth, mark(row.naive_cpe, row.truth_cpe),
                   mark(row.versionbind_cpe, row.truth_cpe)});
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nAppendix A reproduced: the A-record variant blames the CPE for ISP\n");
  std::printf("interception behind an open port 53 (%s), the version.bind variant\n",
              naive_made_the_appendix_a_error ? "it does" : "NOT REPRODUCED");
  std::printf("stays correct on every case (%s).\n",
              versionbind_all_correct ? "it does" : "NOT REPRODUCED");
  return naive_made_the_appendix_a_error && versionbind_all_correct ? 0 : 1;
}
