#include "core/transparency.h"

#include "resolvers/special_names.h"

namespace dnslocate::core {

std::string_view to_string(ResolverTransparency value) {
  switch (value) {
    case ResolverTransparency::transparent: return "transparent";
    case ResolverTransparency::status_modified: return "status modified";
    case ResolverTransparency::answered_by_target: return "answered by target";
    case ResolverTransparency::timed_out: return "timeout";
  }
  return "?";
}

TransparencyReport TransparencyTester::run(
    AsyncQueryTransport& engine, const std::vector<resolvers::PublicResolverKind>& intercepted,
    bool* drained) {
  QueryBatch batch;
  simnet::Rng ids(config_.id_seed);
  dnswire::RecordType qtype = config_.family == netbase::IpFamily::v4
                                  ? dnswire::RecordType::A
                                  : dnswire::RecordType::AAAA;
  for (resolvers::PublicResolverKind kind : intercepted) {
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    auto addrs = spec.service_addrs(config_.family);
    batch.add(netbase::Endpoint{addrs[0], netbase::kDnsPort},
              dnswire::make_query(random_query_id(ids), resolvers::whoami_akamai(), qtype),
              config_.query);
  }

  engine.run(batch);
  if (drained != nullptr) *drained = batch.drained();

  TransparencyReport report;
  bool any_transparent = false;
  bool any_modified = false;

  for (std::size_t i = 0; i < intercepted.size(); ++i) {
    resolvers::PublicResolverKind kind = intercepted[i];
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    const QueryResult& result = batch.result(i);

    TransparencyObservation obs;
    if (!result.answered()) {
      obs.klass = ResolverTransparency::timed_out;
      obs.display = "timeout";
    } else if (result.response->rcode() != dnswire::Rcode::NOERROR) {
      obs.klass = ResolverTransparency::status_modified;
      obs.display = std::string(dnswire::to_string(result.response->rcode()));
      any_modified = true;
    } else if (auto addr = result.response->first_address()) {
      obs.display = addr->to_string();
      bool in_target_egress = false;
      for (const auto& prefix : spec.egress_prefixes)
        if (prefix.contains(*addr)) in_target_egress = true;
      // (a) interception confirmed when the answering egress is not the
      // target's; (b) transparent because the answer is a valid resolution.
      obs.klass = in_target_egress ? ResolverTransparency::answered_by_target
                                   : ResolverTransparency::transparent;
      if (!in_target_egress) any_transparent = true;
    } else {
      obs.klass = ResolverTransparency::status_modified;  // NOERROR but empty
      obs.display = "(empty)";
      any_modified = true;
    }
    report.per_resolver.emplace(kind, std::move(obs));
  }

  if (any_transparent && any_modified)
    report.overall = TransparencyClass::both;
  else if (any_transparent)
    report.overall = TransparencyClass::transparent;
  else if (any_modified)
    report.overall = TransparencyClass::status_modified;
  else
    report.overall = TransparencyClass::indeterminate;
  return report;
}

}  // namespace dnslocate::core
