#include "core/path_probe.h"

#include "dnswire/debug_queries.h"

namespace dnslocate::core {

std::string PathHop::to_string() const {
  std::string out = std::to_string(ttl) + "  ";
  out += router ? router->to_string() : "*";
  if (dns_answered) out += "  [DNS response]";
  return out;
}

std::vector<netbase::IpAddress> PathReport::routers() const {
  std::vector<netbase::IpAddress> out;
  for (const auto& hop : hops)
    if (hop.router) out.push_back(*hop.router);
  return out;
}

std::string PathReport::to_string() const {
  std::string out = "path to " + target.to_string() + "\n";
  for (const auto& hop : hops) out += "  " + hop.to_string() + "\n";
  if (responder_hop)
    out += "responder at hop " + std::to_string(*responder_hop) + "\n";
  return out;
}

PathReport PathProber::trace(AsyncQueryTransport& engine, const netbase::Endpoint& target,
                             bool* drained) {
  PathReport report;
  report.target = target;
  if (drained != nullptr) *drained = false;
  if (!engine.transport().supports_ttl()) return report;

  // The whole TTL ladder goes into one declarative batch — the plan cannot
  // depend on results that don't exist yet, so stop_at_responder moves from
  // the send loop to the interpretation below: hops past the first DNS
  // answer are measured but left out of the report, exactly as if the
  // sequential loop had stopped there.
  QueryBatch batch;
  for (std::uint8_t ttl = 1; ttl <= config_.max_ttl; ++ttl) {
    QueryOptions options = config_.query;
    options.ttl = ttl;
    batch.add(target, dnswire::make_chaos_query(next_id_++, dnswire::version_bind()), options);
  }

  engine.run(batch);
  if (drained != nullptr) *drained = batch.drained();

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QueryResult& result = batch.result(i);
    PathHop hop;
    hop.ttl = static_cast<std::uint8_t>(i + 1);
    hop.router = result.icmp_from;
    hop.dns_answered = result.answered();
    report.hops.push_back(hop);

    if (result.answered()) {
      if (!report.responder_hop) report.responder_hop = hop.ttl;
      if (config_.stop_at_responder) break;
    }
  }
  return report;
}

}  // namespace dnslocate::core
