#include "core/isp_localizer.h"

#include "core/classify.h"
#include "dnswire/debug_queries.h"
#include "resolvers/special_names.h"

namespace dnslocate::core {

BogonReport IspLocalizer::run(AsyncQueryTransport& engine, bool* drained) {
  // Per tested family: an A query for the probe domain, then version.bind,
  // both addressed to the bogon target — the order the sequential localizer
  // always used (v4 pair first, then v6).
  QueryBatch batch;
  simnet::Rng ids(config_.id_seed);
  QueryTransport& transport = engine.transport();

  struct Planned {
    BogonFamilyReport* family;
    netbase::Endpoint target;
  };
  BogonReport report;
  std::vector<Planned> plan;
  if (transport.supports_family(netbase::IpFamily::v4))
    plan.push_back(Planned{&report.v4, config_.bogon_v4});
  if (config_.test_v6 && transport.supports_family(netbase::IpFamily::v6))
    plan.push_back(Planned{&report.v6, config_.bogon_v6});

  for (const Planned& planned : plan) {
    batch.add(planned.target,
              dnswire::make_query(random_query_id(ids), resolvers::bogon_probe_domain(),
                                  dnswire::RecordType::A),
              config_.query);
    batch.add(planned.target,
              dnswire::make_chaos_query(random_query_id(ids), dnswire::version_bind()),
              config_.query);
  }

  engine.run(batch);
  if (drained != nullptr) *drained = batch.drained();

  for (std::size_t i = 0; i < plan.size(); ++i) {
    BogonFamilyReport& family = *plan[i].family;
    family.tested = true;
    family.target = plan[i].target;
    family.a_query = batch.result(2 * i);
    family.a_display = location_response_display(family.a_query);
    family.version_query = batch.result(2 * i + 1);
    family.version_display = location_response_display(family.version_query);
  }

  for (const BogonFamilyReport* family : {&report.v4, &report.v6}) {
    if (family->version_query.answered()) {
      if (auto txt = family->version_query.response->first_txt()) {
        report.version_bind_txt = *txt;
        break;
      }
    }
  }
  return report;
}

}  // namespace dnslocate::core
