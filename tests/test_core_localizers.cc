// Core localizer logic tests over a scripted transport — no simulator, so
// each decision rule of §3.1-§3.3 and §4.1.2 is pinned in isolation.
#include <gtest/gtest.h>

#include <functional>

#include "core/cpe_localizer.h"
#include "core/detector.h"
#include "core/isp_localizer.h"
#include "core/pipeline.h"
#include "core/transparency.h"
#include "dnswire/debug_queries.h"
#include "resolvers/special_names.h"

namespace dnslocate::core {
namespace {

using resolvers::PublicResolverKind;

/// Transport whose behaviour is a plain function of (server, question).
class ScriptedTransport : public SequentialTransport {
 public:
  using Script = std::function<std::optional<dnswire::Message>(const netbase::Endpoint&,
                                                               const dnswire::Message&)>;
  explicit ScriptedTransport(Script script) : script_(std::move(script)) {}

  QueryResult query(const netbase::Endpoint& server, const dnswire::Message& message,
                    const QueryOptions&) override {
    ++queries_;
    QueryResult result;
    auto response = script_(server, message);
    if (response) {
      response->id = message.id;
      result.status = QueryResult::Status::answered;
      result.response = *response;
      result.all_responses.push_back(std::move(*response));
    }
    return result;
  }
  bool supports_family(netbase::IpFamily family) const override {
    return family == netbase::IpFamily::v4 || v6_;
  }
  void set_v6(bool v6) { v6_ = v6; }
  int queries() const { return queries_; }

 private:
  Script script_;
  bool v6_ = false;
  int queries_ = 0;
};

bool is_version_bind(const dnswire::Message& m) {
  return dnswire::is_chaos_query_for(m, dnswire::version_bind());
}

/// Standard answers for every resolver (a clean network).
std::optional<dnswire::Message> clean_network(const netbase::Endpoint& server,
                                              const dnswire::Message& query) {
  for (PublicResolverKind kind : resolvers::all_public_resolvers()) {
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    for (auto family : {netbase::IpFamily::v4, netbase::IpFamily::v6})
      for (const auto& addr : spec.service_addrs(family)) {
        if (addr != server.address) continue;
        resolvers::PublicResolverBehavior behavior(kind, 0, 0);
        resolvers::QueryContext context;
        context.client = *netbase::IpAddress::parse("203.0.113.9");
        context.server_ip = addr;
        return behavior.respond(query, context);
      }
  }
  return std::nullopt;  // CPE IP, bogons: silence
}

TEST(Detector, CleanNetworkFindsNothing) {
  ScriptedTransport transport{clean_network};
  InterceptionDetector detector;
  auto report = detector.run(transport);
  EXPECT_FALSE(report.any_intercepted());
  // 4 resolvers x 2 addresses, v4 only (transport has no v6).
  EXPECT_EQ(report.probes.size(), 8u);
  for (const auto& r : report.per_resolver) {
    EXPECT_TRUE(r.tested_v4);
    EXPECT_FALSE(r.tested_v6);
    EXPECT_FALSE(r.unreachable_v4);
  }
}

TEST(Detector, V6TestedWhenSupported) {
  ScriptedTransport transport{clean_network};
  transport.set_v6(true);
  InterceptionDetector detector;
  auto report = detector.run(transport);
  EXPECT_EQ(report.probes.size(), 16u);
  for (const auto& r : report.per_resolver) EXPECT_TRUE(r.tested_v6);
}

TEST(Detector, SecondaryAddressesCanBeDisabled) {
  ScriptedTransport transport{clean_network};
  InterceptionDetector::Config config;
  config.use_secondary_addresses = false;
  InterceptionDetector detector(config);
  EXPECT_EQ(detector.run(transport).probes.size(), 4u);
}

TEST(Detector, AllTimeoutsIsUnreachableNotIntercepted) {
  ScriptedTransport transport{[](const auto&, const auto&) { return std::nullopt; }};
  InterceptionDetector detector;
  auto report = detector.run(transport);
  EXPECT_FALSE(report.any_intercepted());
  for (const auto& r : report.per_resolver) EXPECT_TRUE(r.unreachable_v4);
}

TEST(Detector, SingleNonstandardAddressFlagsTheResolver) {
  // Primary answers standard; secondary is hijacked.
  auto script = [](const netbase::Endpoint& server,
                   const dnswire::Message& query) -> std::optional<dnswire::Message> {
    const auto& spec = resolvers::PublicResolverSpec::get(PublicResolverKind::cloudflare);
    if (server.address == spec.service_v4[1])
      return dnswire::make_txt_response(query, "hijacked!");
    return clean_network(server, query);
  };
  ScriptedTransport transport{script};
  InterceptionDetector detector;
  auto report = detector.run(transport);
  EXPECT_TRUE(report.of(PublicResolverKind::cloudflare).intercepted_v4);
  EXPECT_FALSE(report.of(PublicResolverKind::google).intercepted_v4);
  EXPECT_EQ(report.intercepted_kinds(netbase::IpFamily::v4).size(), 1u);
  EXPECT_FALSE(report.all_four_intercepted(netbase::IpFamily::v4));
}

// --- CPE localizer (§3.2) ---

netbase::IpAddress cpe_ip() { return *netbase::IpAddress::parse("203.0.113.7"); }

TEST(CpeLocalizer, IdenticalStringsMeanCpe) {
  auto script = [](const netbase::Endpoint&,
                   const dnswire::Message& query) -> std::optional<dnswire::Message> {
    if (is_version_bind(query)) return dnswire::make_txt_response(query, "dnsmasq-2.78");
    return std::nullopt;
  };
  ScriptedTransport transport{script};
  CpeLocalizer localizer;
  auto report = localizer.run(transport, cpe_ip(),
                              {PublicResolverKind::cloudflare, PublicResolverKind::google});
  EXPECT_TRUE(report.cpe_is_interceptor);
  EXPECT_EQ(report.matching.size(), 2u);
  EXPECT_EQ(report.cpe.display, "dnsmasq-2.78");
}

TEST(CpeLocalizer, DifferentStringsMeanNotCpe) {
  auto script = [](const netbase::Endpoint& server,
                   const dnswire::Message& query) -> std::optional<dnswire::Message> {
    if (!is_version_bind(query)) return std::nullopt;
    if (server.address == cpe_ip()) return dnswire::make_txt_response(query, "dnsmasq-2.80");
    return dnswire::make_txt_response(query, "unbound 1.13.1");
  };
  ScriptedTransport transport{script};
  CpeLocalizer localizer;
  auto report = localizer.run(transport, cpe_ip(), {PublicResolverKind::google});
  EXPECT_FALSE(report.cpe_is_interceptor);
  EXPECT_TRUE(report.matching.empty());
  EXPECT_TRUE(report.cpe.has_string());
}

TEST(CpeLocalizer, SilentCpeMeansNotCpe) {
  auto script = [](const netbase::Endpoint& server,
                   const dnswire::Message& query) -> std::optional<dnswire::Message> {
    if (server.address == cpe_ip()) return std::nullopt;  // port 53 closed
    if (is_version_bind(query)) return dnswire::make_txt_response(query, "unbound 1.13.1");
    return std::nullopt;
  };
  ScriptedTransport transport{script};
  CpeLocalizer localizer;
  auto report = localizer.run(transport, cpe_ip(), {PublicResolverKind::google});
  EXPECT_FALSE(report.cpe_is_interceptor);
  EXPECT_FALSE(report.cpe.answered);
  EXPECT_EQ(report.cpe.display, "timeout");
}

TEST(CpeLocalizer, MatchingErrorRcodesAreNotIdentity) {
  // Appendix A: only high-entropy *strings* establish identity. Both sides
  // answering NXDOMAIN proves nothing.
  auto script = [](const netbase::Endpoint&,
                   const dnswire::Message& query) -> std::optional<dnswire::Message> {
    return dnswire::make_response(query, dnswire::Rcode::NXDOMAIN);
  };
  ScriptedTransport transport{script};
  CpeLocalizer localizer;
  auto report = localizer.run(transport, cpe_ip(), {PublicResolverKind::google});
  EXPECT_FALSE(report.cpe_is_interceptor);
  EXPECT_EQ(report.cpe.display, "NXDOMAIN");
}

TEST(CpeLocalizer, PartialMatchIsNotCpe) {
  // Two intercepted resolvers, only one string matches the CPE's.
  auto script = [](const netbase::Endpoint& server,
                   const dnswire::Message& query) -> std::optional<dnswire::Message> {
    if (!is_version_bind(query)) return std::nullopt;
    const auto& google = resolvers::PublicResolverSpec::get(PublicResolverKind::google);
    if (server.address == google.service_v4[0])
      return dnswire::make_txt_response(query, "other-box 1.0");
    return dnswire::make_txt_response(query, "dnsmasq-2.78");
  };
  ScriptedTransport transport{script};
  CpeLocalizer localizer;
  auto report = localizer.run(transport, cpe_ip(),
                              {PublicResolverKind::cloudflare, PublicResolverKind::google});
  EXPECT_FALSE(report.cpe_is_interceptor);
  EXPECT_EQ(report.matching.size(), 1u);
}

TEST(CpeLocalizer, NoSuspectsMeansNotCpe) {
  ScriptedTransport transport{[](const auto&, const auto& query) {
    return std::optional(dnswire::make_txt_response(query, "dnsmasq-2.78"));
  }};
  CpeLocalizer localizer;
  auto report = localizer.run(transport, cpe_ip(), {});
  EXPECT_FALSE(report.cpe_is_interceptor);
}

// --- ISP localizer (§3.3) ---

TEST(IspLocalizer, AnswerMeansWithinIsp) {
  auto script = [](const netbase::Endpoint& server,
                   const dnswire::Message& query) -> std::optional<dnswire::Message> {
    if (!server.address.is_bogon()) return std::nullopt;
    if (is_version_bind(query)) return dnswire::make_txt_response(query, "isp-resolver");
    return dnswire::make_response(query, dnswire::Rcode::NOERROR);
  };
  ScriptedTransport transport{script};
  IspLocalizer localizer;
  auto report = localizer.run(transport);
  EXPECT_TRUE(report.within_isp());
  EXPECT_TRUE(report.v4.tested);
  EXPECT_FALSE(report.v6.tested);  // transport has no v6
  EXPECT_EQ(report.version_bind_txt, "isp-resolver");
}

TEST(IspLocalizer, SilenceMeansUnknown) {
  ScriptedTransport transport{[](const auto&, const auto&) { return std::nullopt; }};
  IspLocalizer localizer;
  EXPECT_FALSE(localizer.run(transport).within_isp());
}

TEST(IspLocalizer, TargetsAreActuallyBogons) {
  IspLocalizer::Config config;
  EXPECT_TRUE(config.bogon_v4.address.is_bogon());
  EXPECT_TRUE(config.bogon_v6.address.is_bogon());
  EXPECT_EQ(config.bogon_v4.port, 53);
}

// --- transparency (§4.1.2) ---

TEST(Transparency, ValidForeignAnswerIsTransparent) {
  auto script = [](const netbase::Endpoint&,
                   const dnswire::Message& query) -> std::optional<dnswire::Message> {
    auto response = dnswire::make_response(query);
    response.answers.push_back(dnswire::make_a(query.question()->name,
                                               netbase::Ipv4Address(198, 51, 100, 2)));
    return response;
  };
  ScriptedTransport transport{script};
  TransparencyTester tester;
  auto report = tester.run(transport, {PublicResolverKind::google});
  EXPECT_EQ(report.overall, TransparencyClass::transparent);
  EXPECT_EQ(report.per_resolver.at(PublicResolverKind::google).klass,
            ResolverTransparency::transparent);
}

TEST(Transparency, TargetEgressAnswerIsNotInterception) {
  auto script = [](const netbase::Endpoint&,
                   const dnswire::Message& query) -> std::optional<dnswire::Message> {
    auto response = dnswire::make_response(query);
    // 172.253.x is inside Google's egress ranges.
    response.answers.push_back(dnswire::make_a(query.question()->name,
                                               netbase::Ipv4Address(172, 253, 1, 2)));
    return response;
  };
  ScriptedTransport transport{script};
  TransparencyTester tester;
  auto report = tester.run(transport, {PublicResolverKind::google});
  EXPECT_EQ(report.per_resolver.at(PublicResolverKind::google).klass,
            ResolverTransparency::answered_by_target);
  EXPECT_EQ(report.overall, TransparencyClass::indeterminate);
}

TEST(Transparency, ErrorStatusesClassifyModified) {
  auto script = [](const netbase::Endpoint&, const dnswire::Message& query) {
    return std::optional(dnswire::make_response(query, dnswire::Rcode::SERVFAIL));
  };
  ScriptedTransport transport{script};
  TransparencyTester tester;
  auto report = tester.run(transport, {PublicResolverKind::quad9});
  EXPECT_EQ(report.overall, TransparencyClass::status_modified);
}

TEST(Transparency, MixedIsBoth) {
  auto script = [](const netbase::Endpoint& server,
                   const dnswire::Message& query) -> std::optional<dnswire::Message> {
    const auto& quad9 = resolvers::PublicResolverSpec::get(PublicResolverKind::quad9);
    if (server.address == quad9.service_v4[0])
      return dnswire::make_response(query, dnswire::Rcode::REFUSED);
    auto response = dnswire::make_response(query);
    response.answers.push_back(dnswire::make_a(query.question()->name,
                                               netbase::Ipv4Address(198, 51, 100, 2)));
    return response;
  };
  ScriptedTransport transport{script};
  TransparencyTester tester;
  auto report = tester.run(transport, {PublicResolverKind::google, PublicResolverKind::quad9});
  EXPECT_EQ(report.overall, TransparencyClass::both);
}

TEST(Transparency, AllTimeoutsIsIndeterminate) {
  ScriptedTransport transport{[](const auto&, const auto&) { return std::nullopt; }};
  TransparencyTester tester;
  auto report = tester.run(transport, {PublicResolverKind::google});
  EXPECT_EQ(report.overall, TransparencyClass::indeterminate);
}

// --- pipeline decision order ---

TEST(Pipeline, SkipsCpeCheckWithoutCpeAddress) {
  // Everything hijacked to one box that answers version.bind.
  auto script = [](const netbase::Endpoint& server,
                   const dnswire::Message& query) -> std::optional<dnswire::Message> {
    if (server.address.is_bogon()) return std::nullopt;  // bogons dropped
    if (is_version_bind(query)) return dnswire::make_txt_response(query, "interceptor");
    return dnswire::make_response(query, dnswire::Rcode::REFUSED);
  };
  ScriptedTransport transport{script};
  PipelineConfig config;  // no cpe_public_ip
  LocalizationPipeline pipeline(config);
  auto verdict = pipeline.run(transport);
  EXPECT_TRUE(verdict.intercepted());
  EXPECT_FALSE(verdict.cpe_check.has_value());
  EXPECT_EQ(verdict.location, InterceptorLocation::unknown);
}

TEST(Pipeline, TransparencyCanBeDisabled) {
  ScriptedTransport transport{clean_network};
  PipelineConfig config;
  config.run_transparency = false;
  LocalizationPipeline pipeline(config);
  auto verdict = pipeline.run(transport);
  EXPECT_FALSE(verdict.transparency.has_value());
}

TEST(Pipeline, CpeVerdictSkipsBogonProbing) {
  auto script = [](const netbase::Endpoint&,
                   const dnswire::Message& query) -> std::optional<dnswire::Message> {
    if (is_version_bind(query)) return dnswire::make_txt_response(query, "dnsmasq-2.78");
    return dnswire::make_response(query, dnswire::Rcode::REFUSED);
  };
  ScriptedTransport transport{script};
  PipelineConfig config;
  config.cpe_public_ip = cpe_ip();
  LocalizationPipeline pipeline(config);
  auto verdict = pipeline.run(transport);
  EXPECT_EQ(verdict.location, InterceptorLocation::cpe);
  EXPECT_FALSE(verdict.bogon.has_value());  // Figure 2: step 3 not reached
}

}  // namespace
}  // namespace dnslocate::core
