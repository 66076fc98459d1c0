#include "core/replication.h"

namespace dnslocate::core {

ReplicationReport ReplicationProber::run(AsyncQueryTransport& engine, bool* drained) {
  QueryBatch batch;
  simnet::Rng ids(config_.id_seed);
  auto kinds = resolvers::all_public_resolvers();
  for (resolvers::PublicResolverKind kind : kinds) {
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    batch.add(netbase::Endpoint{spec.service_v4[0], netbase::kDnsPort},
              dnswire::make_query(random_query_id(ids), spec.location_query.name,
                                  spec.location_query.type, spec.location_query.klass),
              config_.query);
  }

  engine.run(batch);
  if (drained != nullptr) *drained = batch.drained();

  ReplicationReport report;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QueryResult& result = batch.result(i);
    ReplicationObservation obs;
    obs.responses = result.all_responses.size();
    obs.replicated = result.replicated();
    obs.first_display = location_response_display(result);
    if (obs.replicated) {
      QueryResult last;
      last.status = QueryResult::Status::answered;
      last.response = result.all_responses.back();
      obs.last_display = location_response_display(last);
      obs.payloads_differ = result.all_responses.front() != result.all_responses.back();
    }
    report.per_resolver.emplace(kinds[i], std::move(obs));
  }
  return report;
}

}  // namespace dnslocate::core
