#include "core/fingerprint.h"

namespace dnslocate::core {
namespace {

/// Alternating-case 0x20 encoding of `name` (deterministic, so probe bytes
/// replay identically per seed). Uppercases every second alphabetic octet.
dnswire::DnsName mixed_case(const dnswire::DnsName& name) {
  std::vector<std::string> labels = name.labels();
  bool upper = true;
  for (auto& label : labels) {
    for (char& c : label) {
      if (c >= 'a' && c <= 'z') {
        if (upper) c = static_cast<char>(c - 'a' + 'A');
        upper = !upper;
      } else if (c >= 'A' && c <= 'Z') {
        if (!upper) c = static_cast<char>(c - 'A' + 'a');
        upper = !upper;
      }
    }
  }
  auto rebuilt = dnswire::DnsName::from_labels(std::move(labels));
  return rebuilt ? *rebuilt : name;
}

bool tc_with_answers(const QueryResult& result) {
  if (!result.answered()) return false;
  for (const auto& response : result.all_responses)
    if (response.flags.tc && !response.answers.empty()) return true;
  return false;
}

}  // namespace

std::string fingerprint_vendor(bool case_folded, bool edns_stripped, bool tc_rewritten) {
  if (!case_folded && !edns_stripped && !tc_rewritten) return "";
  if (case_folded && edns_stripped && tc_rewritten) return "omnibox";
  if (case_folded && !edns_stripped && !tc_rewritten) return "foldix";
  if (!case_folded && edns_stripped && !tc_rewritten) return "optstrip";
  if (!case_folded && !edns_stripped && tc_rewritten) return "truncor";
  return "dpi-unnamed";
}

FingerprintReport FingerprintProber::run(AsyncQueryTransport& engine,
                                         resolvers::PublicResolverKind target, bool* drained) {
  const auto& spec = resolvers::PublicResolverSpec::get(target);
  auto addrs = spec.service_addrs(config_.family);
  netbase::Endpoint server{addrs[0], netbase::kDnsPort};

  QueryBatch batch;
  simnet::Rng ids(config_.id_seed);

  // Slot 0: the 0x20 probe — the resolver's own location query (so the
  // server answers it) with alternating casing.
  batch.add(server,
            dnswire::make_query(random_query_id(ids), mixed_case(spec.location_query.name),
                                spec.location_query.type, spec.location_query.klass),
            config_.query);
  // Slot 1: the EDNS probe — same question, normal casing, OPT attached.
  {
    dnswire::Message query =
        dnswire::make_query(random_query_id(ids), spec.location_query.name,
                            spec.location_query.type, spec.location_query.klass);
    query.add_opt();
    batch.add(server, std::move(query), config_.query);
  }

  engine.run(batch);
  if (drained != nullptr) *drained = batch.drained();

  FingerprintReport report;
  report.tested = true;
  report.target = server;
  const QueryResult& case_probe = batch.result(0);
  const QueryResult& edns_probe = batch.result(1);
  report.unreachable = !case_probe.answered() && !edns_probe.answered();
  report.case_folded = case_probe.arbitration.case_mismatches > 0;
  report.edns_stripped = edns_probe.answered() && !edns_probe.response->has_opt();
  report.tc_rewritten = tc_with_answers(case_probe) || tc_with_answers(edns_probe);
  report.vendor =
      fingerprint_vendor(report.case_folded, report.edns_stripped, report.tc_rewritten);
  return report;
}

}  // namespace dnslocate::core
