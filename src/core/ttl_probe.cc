#include "core/ttl_probe.h"

#include "dnswire/debug_queries.h"

namespace dnslocate::core {

TtlSweepReport TtlLocalizer::sweep(AsyncQueryTransport& engine,
                                   const netbase::Endpoint& target, bool* drained) {
  TtlSweepReport report;
  report.target = target;
  if (drained != nullptr) *drained = false;
  if (!engine.transport().supports_ttl()) return report;

  // Declarative plan: the whole sweep is fixed before anything is sent, so
  // transaction IDs are allocated in TTL order under every engine.
  QueryBatch batch;
  for (std::uint8_t ttl = 1; ttl <= config_.max_ttl; ++ttl) {
    QueryOptions options = config_.query;
    options.ttl = ttl;
    batch.add(target, dnswire::make_chaos_query(next_id_++, dnswire::version_bind()), options);
  }

  engine.run(batch);
  if (drained != nullptr) *drained = batch.drained();

  for (std::size_t i = 0; i < batch.size(); ++i) {
    bool answered = batch.result(i).answered();
    report.answered.push_back(answered);
    if (answered && !report.responder_hop)
      report.responder_hop = static_cast<std::uint8_t>(i + 1);
  }
  return report;
}

std::optional<std::uint8_t> TtlLocalizer::responder_hop(AsyncQueryTransport& engine,
                                                        const netbase::Endpoint& target) {
  return sweep(engine, target).responder_hop;
}

}  // namespace dnslocate::core
