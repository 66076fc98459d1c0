#include "core/detector.h"

namespace dnslocate::core {

std::vector<resolvers::PublicResolverKind> DetectionReport::intercepted_kinds(
    netbase::IpFamily family) const {
  std::vector<resolvers::PublicResolverKind> kinds;
  for (const auto& r : per_resolver)
    if (r.intercepted(family)) kinds.push_back(r.kind);
  return kinds;
}

bool DetectionReport::all_four_intercepted(netbase::IpFamily family) const {
  for (const auto& r : per_resolver)
    if (!r.intercepted(family)) return false;
  return true;
}

DetectionReport InterceptionDetector::run(AsyncQueryTransport& engine, bool* drained) {
  // Declarative plan: every (resolver, family, address) probe, in the fixed
  // order the sequential detector always used. IDs are drawn at build time,
  // so the set of datagrams is engine-independent.
  struct Planned {
    resolvers::PublicResolverKind kind{};
    netbase::IpFamily family{};
    netbase::Endpoint server;
  };
  QueryBatch batch;
  std::vector<Planned> plan;
  simnet::Rng ids(config_.id_seed);

  QueryTransport& transport = engine.transport();
  for (resolvers::PublicResolverKind kind : resolvers::all_public_resolvers()) {
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    for (netbase::IpFamily family : {netbase::IpFamily::v4, netbase::IpFamily::v6}) {
      if (family == netbase::IpFamily::v6 && !config_.test_v6) continue;
      if (!transport.supports_family(family)) continue;

      auto addrs = spec.service_addrs(family);
      std::size_t count = config_.use_secondary_addresses ? addrs.size() : 1;
      for (std::size_t i = 0; i < count; ++i) {
        netbase::Endpoint server{addrs[i], netbase::kDnsPort};
        dnswire::Message query =
            dnswire::make_query(random_query_id(ids), spec.location_query.name,
                                spec.location_query.type, spec.location_query.klass);
        batch.add(server, std::move(query), config_.query);
        plan.push_back(Planned{kind, family, server});
      }
    }
  }

  engine.run(batch);
  if (drained != nullptr) *drained = batch.drained();

  DetectionReport report;
  struct FamilyTally {
    bool tested = false;
    bool intercepted = false;
    bool any_answered = false;
    bool contested = false;
  };
  std::array<std::array<FamilyTally, 2>, 4> tally{};

  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& planned = plan[i];
    LocationProbe probe;
    probe.kind = planned.kind;
    probe.family = planned.family;
    probe.server = planned.server;
    probe.result = batch.result(i);
    probe.verdict = classify_location_response(planned.kind, probe.result);
    probe.display = location_response_display(probe.result);
    probe.contested = location_evidence_contested(planned.kind, probe.result);

    FamilyTally& t = tally[static_cast<std::size_t>(planned.kind)]
                          [planned.family == netbase::IpFamily::v4 ? 0 : 1];
    t.tested = true;
    // Contested is a parallel signal, not a filter: the first-accepted
    // answer still nominates suspects (a replicating interceptor also
    // conflicts with the genuine answer, and must stay localizable), and
    // the pipeline decides whether corroborating evidence survives or the
    // verdict degrades to `contested` (see pipeline.cc).
    if (probe.contested) t.contested = true;
    if (indicates_interception(probe.verdict)) t.intercepted = true;
    if (probe.result.answered()) t.any_answered = true;
    report.probes.push_back(std::move(probe));
  }

  for (std::size_t k = 0; k < report.per_resolver.size(); ++k) {
    auto& summary = report.per_resolver[k];
    const FamilyTally& v4 = tally[k][0];
    const FamilyTally& v6 = tally[k][1];
    summary.tested_v4 = v4.tested;
    summary.intercepted_v4 = v4.intercepted;
    summary.unreachable_v4 = v4.tested && !v4.any_answered;
    summary.tested_v6 = v6.tested;
    summary.intercepted_v6 = v6.intercepted;
    summary.unreachable_v6 = v6.tested && !v6.any_answered;
    summary.contested_v4 = v4.contested;
    summary.contested_v6 = v6.contested;
  }
  return report;
}

}  // namespace dnslocate::core
