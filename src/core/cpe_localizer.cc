#include "core/cpe_localizer.h"

#include "dnswire/debug_queries.h"

namespace dnslocate::core {

VersionBindObservation CpeLocalizer::interpret(const QueryResult& result) {
  VersionBindObservation obs;
  if (!result.answered()) {
    obs.display = "timeout";
    return obs;
  }
  obs.answered = true;
  obs.rcode = result.response->rcode();
  if (obs.rcode == dnswire::Rcode::NOERROR) {
    obs.txt = result.response->first_txt();
    obs.display = obs.txt.value_or("(empty)");
  } else {
    obs.display = std::string(dnswire::to_string(obs.rcode));
  }
  return obs;
}

CpeCheckReport CpeLocalizer::run(AsyncQueryTransport& engine,
                                 const netbase::IpAddress& cpe_public_ip,
                                 const std::vector<resolvers::PublicResolverKind>& suspects,
                                 bool* drained) {
  // Slot 0: version.bind to the CPE's own public IP. "By usual IP routing
  // rules, this query cannot travel beyond the CPE..." (§3.2). Slots 1..N:
  // the same question to each intercepted resolver's primary address.
  QueryBatch batch;
  simnet::Rng ids(config_.id_seed);
  batch.add(netbase::Endpoint{cpe_public_ip, netbase::kDnsPort},
            dnswire::make_chaos_query(random_query_id(ids), dnswire::version_bind()),
            config_.query);
  for (resolvers::PublicResolverKind kind : suspects) {
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    auto addrs = spec.service_addrs(config_.family);
    batch.add(netbase::Endpoint{addrs[0], netbase::kDnsPort},
              dnswire::make_chaos_query(random_query_id(ids), dnswire::version_bind()),
              config_.query);
  }

  engine.run(batch);
  if (drained != nullptr) *drained = batch.drained();

  CpeCheckReport report;
  report.cpe = interpret(batch.result(0));
  report.contested = batch.result(0).contested();
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    resolvers::PublicResolverKind kind = suspects[i];
    report.contested = report.contested || batch.result(1 + i).contested();
    VersionBindObservation obs = interpret(batch.result(1 + i));
    bool matches = report.cpe.has_string() && obs.has_string() && *report.cpe.txt == *obs.txt;
    if (matches) report.matching.push_back(kind);
    report.resolver_answers.emplace(kind, std::move(obs));
  }

  // Appendix A: the comparison is meaningful only because version.bind
  // strings are high-entropy. We additionally require the CPE to have
  // produced a string at all (error rcodes carry no identity).
  report.cpe_is_interceptor =
      report.cpe.has_string() && !suspects.empty() && report.matching.size() == suspects.size();
  return report;
}

}  // namespace dnslocate::core
