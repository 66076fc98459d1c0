// Step 2 (§3.2 and Appendix A): is the CPE the interceptor?
//
// Send version.bind (CHAOS TXT) to the CPE's own public IP and to each
// intercepted public resolver; identical high-entropy response strings mean
// one box — the CPE — answered all of them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/query_batch.h"
#include "core/transport.h"
#include "resolvers/public_resolver.h"

namespace dnslocate::core {

/// One version.bind observation.
struct VersionBindObservation {
  bool answered = false;
  /// The TXT payload, when the answer carried one.
  std::optional<std::string> txt;
  /// Rcode of the response (meaningful only when answered).
  dnswire::Rcode rcode = dnswire::Rcode::NOERROR;
  /// Table-3-style rendering ("unbound 1.9.0", "NOTIMP", "timeout").
  std::string display;

  [[nodiscard]] bool has_string() const { return answered && txt.has_value(); }
};

/// Step-2 report.
struct CpeCheckReport {
  VersionBindObservation cpe;  // query addressed to the CPE's public IP
  std::map<resolvers::PublicResolverKind, VersionBindObservation> resolver_answers;
  /// Intercepted resolvers whose version.bind string equals the CPE's.
  std::vector<resolvers::PublicResolverKind> matching;
  /// §3.2's conclusion: the CPE intercepts (true when the CPE responded with
  /// a string and every checked resolver returned the identical string).
  bool cpe_is_interceptor = false;
  /// Some comparison query collected conflicting accepted answers
  /// (ArbitrationEvidence): the string comparison rests on contested data
  /// and the pipeline must not turn it into a CPE/ISP attribution.
  bool contested = false;
};

class CpeLocalizer {
 public:
  struct Config {
    QueryOptions query;
    /// Family used for the comparison queries (interception is
    /// overwhelmingly v4; the CPE public IP is a v4 address).
    netbase::IpFamily family = netbase::IpFamily::v4;
    /// Seed for the transaction-ID stream (the pipeline derives this from
    /// the probe seed; the default only matters for direct stage calls).
    std::uint64_t id_seed = 0x2000;
  };

  CpeLocalizer() = default;
  explicit CpeLocalizer(Config config) : config_(config) {}

  /// `cpe_public_ip` is the WAN address of the home router; `suspects` are
  /// the resolvers step 1 found intercepted (primary addresses are queried).
  /// The CPE query and every suspect query go out as one batch.
  CpeCheckReport run(AsyncQueryTransport& engine, const netbase::IpAddress& cpe_public_ip,
                     const std::vector<resolvers::PublicResolverKind>& suspects,
                     bool* drained = nullptr);

 private:
  static VersionBindObservation interpret(const QueryResult& result);

  Config config_;
};

}  // namespace dnslocate::core
