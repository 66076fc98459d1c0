// Step 1 (§3.1): detect interception with location queries to the four
// public resolvers, on primary and secondary addresses, over IPv4 and IPv6.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/classify.h"
#include "core/query_batch.h"
#include "core/transport.h"

namespace dnslocate::core {

/// One location-query observation.
struct LocationProbe {
  resolvers::PublicResolverKind kind{};
  netbase::IpFamily family{};
  netbase::Endpoint server;
  QueryResult result;
  LocationVerdict verdict = LocationVerdict::timed_out;
  std::string display;  // Table-2-style rendering
  /// Conflicting answers were collected and they disagree on interception
  /// (see classify.h location_evidence_contested). The first-accepted
  /// answer still drives `verdict` — a replicating interceptor also
  /// conflicts with the genuine answer and must stay localizable — but the
  /// pipeline refuses to output a location that rests *only* on contested
  /// evidence (core/pipeline.cc).
  bool contested = false;
};

/// Per-resolver interception summary.
struct ResolverInterception {
  resolvers::PublicResolverKind kind{};
  bool tested_v4 = false;
  bool tested_v6 = false;
  bool intercepted_v4 = false;
  bool intercepted_v6 = false;
  /// Every probe of that family timed out — resolver unreachable, which the
  /// technique conservatively does not count as interception.
  bool unreachable_v4 = false;
  bool unreachable_v6 = false;
  /// Some probe of that family was contested (conflicting answers that
  /// disagree on interception): its detection evidence needs corroboration
  /// before it can support a localization claim.
  bool contested_v4 = false;
  bool contested_v6 = false;

  [[nodiscard]] bool intercepted(netbase::IpFamily family) const {
    return family == netbase::IpFamily::v4 ? intercepted_v4 : intercepted_v6;
  }
  [[nodiscard]] bool contested(netbase::IpFamily family) const {
    return family == netbase::IpFamily::v4 ? contested_v4 : contested_v6;
  }
};

/// Full step-1 report.
struct DetectionReport {
  std::vector<LocationProbe> probes;
  /// Indexed by kind; each entry names its kind even if detection never ran.
  std::array<ResolverInterception, 4> per_resolver{
      {{.kind = resolvers::PublicResolverKind::cloudflare},
       {.kind = resolvers::PublicResolverKind::google},
       {.kind = resolvers::PublicResolverKind::quad9},
       {.kind = resolvers::PublicResolverKind::opendns}}};

  [[nodiscard]] const ResolverInterception& of(resolvers::PublicResolverKind kind) const {
    return per_resolver[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] bool any_intercepted(netbase::IpFamily family) const {
    for (const auto& r : per_resolver)
      if (r.intercepted(family)) return true;
    return false;
  }
  [[nodiscard]] bool any_intercepted() const {
    return any_intercepted(netbase::IpFamily::v4) || any_intercepted(netbase::IpFamily::v6);
  }
  [[nodiscard]] bool any_contested(netbase::IpFamily family) const {
    for (const auto& r : per_resolver)
      if (r.contested(family)) return true;
    return false;
  }
  [[nodiscard]] bool any_contested() const {
    return any_contested(netbase::IpFamily::v4) || any_contested(netbase::IpFamily::v6);
  }
  /// Resolvers flagged as intercepted in the given family.
  [[nodiscard]] std::vector<resolvers::PublicResolverKind> intercepted_kinds(
      netbase::IpFamily family) const;
  /// True if all four resolvers were intercepted (the majority pattern
  /// in Table 4's "All Intercepted" row).
  [[nodiscard]] bool all_four_intercepted(netbase::IpFamily family) const;
};

class InterceptionDetector {
 public:
  struct Config {
    bool test_v6 = true;
    /// Also probe the secondary service addresses (1.0.0.1, 8.8.4.4, ...).
    bool use_secondary_addresses = true;
    QueryOptions query;
    /// Seed for the transaction-ID stream (the pipeline derives this from
    /// the probe seed; the default only matters for direct stage calls).
    std::uint64_t id_seed = 0x1000;
  };

  InterceptionDetector() = default;
  explicit InterceptionDetector(Config config) : config_(config) {}

  /// Build the full detection query set (4 resolvers × families × addresses),
  /// fan it out on `engine`, and interpret the results by index. When the
  /// engine drained the batch (cancellation mid-flight), `*drained` is set so
  /// the caller can mark the stage skipped instead of trusting the report.
  DetectionReport run(AsyncQueryTransport& engine, bool* drained = nullptr);

 private:
  Config config_;
};

}  // namespace dnslocate::core
