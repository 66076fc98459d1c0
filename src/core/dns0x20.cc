#include "core/dns0x20.h"

namespace dnslocate::core {

std::string_view to_string(CaseEchoResult result) {
  switch (result) {
    case CaseEchoResult::preserved: return "preserved";
    case CaseEchoResult::rewritten: return "rewritten";
    case CaseEchoResult::no_question: return "no question";
    case CaseEchoResult::timed_out: return "timeout";
  }
  return "?";
}

std::string Dns0x20Prober::encode_0x20(const std::string& name, simnet::Rng& rng) {
  std::string out = name;
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') {
      if (rng.bernoulli(0.5)) c = static_cast<char>(c - 'a' + 'A');
    } else if (c >= 'A' && c <= 'Z') {
      if (rng.bernoulli(0.5)) c = static_cast<char>(c - 'A' + 'a');
    }
  }
  return out;
}

Dns0x20Report Dns0x20Prober::run(AsyncQueryTransport& engine) {
  Dns0x20Report report;
  simnet::Rng rng(config_.seed);
  for (resolvers::PublicResolverKind kind : resolvers::all_public_resolvers()) {
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    netbase::Endpoint server{spec.service_v4[0], netbase::kDnsPort};

    std::string encoded = encode_0x20(config_.base_name, rng);
    report.sent_names.emplace(kind, encoded);
    auto name = dnswire::DnsName::parse(encoded);
    if (!name) {
      report.per_resolver.emplace(kind, CaseEchoResult::timed_out);
      continue;
    }
    dnswire::Message query = dnswire::make_query(next_id_++, *name, dnswire::RecordType::A);
    QueryResult result = query_one(engine, server, query, config_.query);

    CaseEchoResult echo;
    if (!result.answered()) {
      echo = CaseEchoResult::timed_out;
    } else if (!result.response->question()) {
      echo = CaseEchoResult::no_question;
    } else {
      // Byte-exact comparison: the whole point of 0x20 is case sensitivity.
      echo = result.response->question()->name == *name ? CaseEchoResult::preserved
                                                        : CaseEchoResult::rewritten;
    }
    report.per_resolver.emplace(kind, echo);
  }
  return report;
}

}  // namespace dnslocate::core
