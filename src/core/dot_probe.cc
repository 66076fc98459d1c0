#include "core/dot_probe.h"

namespace dnslocate::core {

std::string_view to_string(DotFinding finding) {
  switch (finding) {
    case DotFinding::not_intercepted: return "not intercepted";
    case DotFinding::dot_blocked: return "DoT blocked (fallback forced)";
    case DotFinding::opportunistic_hijacked: return "opportunistic DoT hijacked";
    case DotFinding::dot_escapes: return "DoT escapes the interceptor";
    case DotFinding::inconsistent: return "inconsistent";
  }
  return "?";
}

DotFinding DotProber::classify(const DotResolverReport& report) {
  auto verdict_of = [&](simnet::Channel channel) {
    auto it = report.channels.find(channel);
    return it == report.channels.end() ? LocationVerdict::timed_out : it->second.verdict;
  };
  LocationVerdict udp = verdict_of(simnet::Channel::udp);
  LocationVerdict strict = verdict_of(simnet::Channel::dot_strict);
  LocationVerdict opportunistic = verdict_of(simnet::Channel::dot_opportunistic);

  bool udp_intercepted = indicates_interception(udp);
  if (!udp_intercepted && udp == LocationVerdict::standard &&
      strict == LocationVerdict::standard && opportunistic == LocationVerdict::standard)
    return DotFinding::not_intercepted;
  if (udp_intercepted) {
    if (strict == LocationVerdict::timed_out && indicates_interception(opportunistic))
      return DotFinding::opportunistic_hijacked;
    if (strict == LocationVerdict::timed_out && opportunistic == LocationVerdict::timed_out)
      return DotFinding::dot_blocked;
    if (strict == LocationVerdict::standard && opportunistic == LocationVerdict::standard)
      return DotFinding::dot_escapes;
  }
  return DotFinding::inconsistent;
}

DotReport DotProber::run(AsyncQueryTransport& engine, bool* drained) {
  if (drained != nullptr) *drained = false;

  // One declarative batch across every (resolver, channel) pair. Channels
  // the transport cannot speak get a placeholder slot with no batch entry —
  // and consume no transaction ID, so the IDs on the wire are identical to
  // the historical sequential loop's.
  struct Slot {
    resolvers::PublicResolverKind kind;
    simnet::Channel channel;
    std::optional<std::size_t> index;  // nullopt: channel unsupported
  };
  std::vector<Slot> slots;
  QueryBatch batch;
  for (resolvers::PublicResolverKind kind : resolvers::all_public_resolvers()) {
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    for (simnet::Channel channel : {simnet::Channel::udp, simnet::Channel::dot_strict,
                                    simnet::Channel::dot_opportunistic}) {
      Slot slot{kind, channel, std::nullopt};
      if (engine.transport().supports_channel(channel)) {
        std::uint16_t port =
            channel == simnet::Channel::udp ? netbase::kDnsPort : netbase::kDotPort;
        QueryOptions options = config_.query;
        options.channel = channel;
        slot.index = batch.add(
            netbase::Endpoint{spec.service_v4[0], port},
            dnswire::make_query(next_id_++, spec.location_query.name,
                                spec.location_query.type, spec.location_query.klass),
            options);
      }
      slots.push_back(slot);
    }
  }

  engine.run(batch);
  if (drained != nullptr) *drained = batch.drained();

  DotReport report;
  for (const Slot& slot : slots) {
    DotChannelResult channel_result;
    if (!slot.index) {
      channel_result.display = "(unsupported)";
    } else {
      const QueryResult& result = batch.result(*slot.index);
      channel_result.verdict = classify_location_response(slot.kind, result);
      channel_result.display = location_response_display(result);
    }
    report.per_resolver[slot.kind].channels.emplace(slot.channel, std::move(channel_result));
  }
  for (auto& [kind, resolver_report] : report.per_resolver)
    resolver_report.finding = classify(resolver_report);
  return report;
}

}  // namespace dnslocate::core
