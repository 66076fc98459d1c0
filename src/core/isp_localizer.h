// Step 3 (§3.3): is the interceptor inside the client's ISP?
//
// Queries addressed to bogon (unroutable) IPs cannot leave the AS; if one is
// answered, the interceptor sits before the AS border. Silence proves
// nothing: the interceptor may be beyond the AS, or may discard
// bogon-addressed queries.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/query_batch.h"
#include "core/transport.h"
#include "netbase/bogon.h"

namespace dnslocate::core {

/// One bogon-probe observation set (per family).
struct BogonFamilyReport {
  bool tested = false;
  netbase::Endpoint target;
  /// A-record query for the generic probe domain (§3.3's primary probe).
  QueryResult a_query;
  /// version.bind to the bogon address — the §3.4 cross-check that the
  /// responder matches the step-2 strings.
  QueryResult version_query;
  std::string a_display;
  std::string version_display;

  [[nodiscard]] bool answered() const {
    return a_query.answered() || version_query.answered();
  }
};

/// Step-3 report.
struct BogonReport {
  BogonFamilyReport v4;
  BogonFamilyReport v6;
  /// version.bind string seen from the bogon address, if any.
  std::optional<std::string> version_bind_txt;

  /// §3.3's conclusion: a response to an unroutable address means the
  /// request "must have been intercepted before it could leave the AS".
  [[nodiscard]] bool within_isp() const { return v4.answered() || v6.answered(); }

  /// Some bogon probe collected conflicting accepted answers: the in-AS
  /// conclusion rests on contested data (see core/verdict.h contested).
  [[nodiscard]] bool contested() const {
    return v4.a_query.contested() || v4.version_query.contested() ||
           v6.a_query.contested() || v6.version_query.contested();
  }
};

class IspLocalizer {
 public:
  struct Config {
    QueryOptions query;
    netbase::Endpoint bogon_v4{netbase::BogonCatalog::default_probe_v4(), netbase::kDnsPort};
    netbase::Endpoint bogon_v6{netbase::BogonCatalog::default_probe_v6(), netbase::kDnsPort};
    bool test_v6 = true;
    /// Seed for the transaction-ID stream (the pipeline derives this from
    /// the probe seed; the default only matters for direct stage calls).
    std::uint64_t id_seed = 0x3000;
  };

  IspLocalizer() = default;
  explicit IspLocalizer(Config config) : config_(std::move(config)) {}

  /// Both bogon targets, A probe + version.bind each, as one batch.
  BogonReport run(AsyncQueryTransport& engine, bool* drained = nullptr);

 private:
  Config config_;
};

}  // namespace dnslocate::core
