// Active interceptor fingerprinting: name a DPI middlebox by its parsing
// ambiguities, in the style of "Fingerprinting DPI Devices by Their
// Ambiguities" (arXiv 2509.09081; see simnet/adversary.h for the modelled
// personalities).
//
// Three end-to-end observable ambiguities are probed:
//  - 0x20 case folding: a mixed-case question whose echo comes back
//    re-cased means something in path rewrote the casing.
//  - EDNS OPT stripping: an OPT-bearing query whose answer lacks the
//    RFC 6891 OPT echo crossed a middlebox that removed EDNS.
//  - TC rewriting: a response carrying answers *and* the truncation bit is
//    self-contradictory — no real server emits it.
#pragma once

#include <cstdint>
#include <string>

#include "core/query_batch.h"
#include "core/transport.h"
#include "resolvers/public_resolver.h"

namespace dnslocate::core {

/// What the fingerprint probes observed.
struct FingerprintReport {
  bool tested = false;
  netbase::Endpoint target;
  /// The mixed-case probe's echoed question came back with different
  /// casing (ArbitrationEvidence::case_mismatches on that query).
  bool case_folded = false;
  /// The OPT-bearing probe's answer carried no OPT record.
  bool edns_stripped = false;
  /// Some answer carried records and the TC bit simultaneously.
  bool tc_rewritten = false;
  /// Both probes timed out — nothing to fingerprint (recorded so callers
  /// can tell "clean" from "unobservable").
  bool unreachable = false;
  /// Personality name matching the observed ambiguity set ("" when no
  /// ambiguity was observed; "dpi-unnamed" for sets outside the zoo).
  std::string vendor;

  [[nodiscard]] bool any_ambiguity() const {
    return case_folded || edns_stripped || tc_rewritten;
  }
};

/// Maps an ambiguity set to the zoo personality exhibiting exactly that set
/// (simnet/adversary.h); "" for none, "dpi-unnamed" for unknown combinations.
std::string fingerprint_vendor(bool case_folded, bool edns_stripped, bool tc_rewritten);

class FingerprintProber {
 public:
  struct Config {
    QueryOptions query;
    netbase::IpFamily family = netbase::IpFamily::v4;
    /// Resolver probed when the pipeline found no interception suspect.
    resolvers::PublicResolverKind default_target = resolvers::PublicResolverKind::cloudflare;
    /// Seed for the transaction-ID stream (the pipeline derives this from
    /// the probe seed; the default only matters for direct stage calls).
    std::uint64_t id_seed = 0x6000;
  };

  FingerprintProber() = default;
  explicit FingerprintProber(Config config) : config_(config) {}

  /// Probe `target`'s primary service address: one mixed-case location
  /// query, one OPT-bearing location query, as a single batch.
  FingerprintReport run(AsyncQueryTransport& engine, resolvers::PublicResolverKind target,
                        bool* drained = nullptr);

 private:
  Config config_;
};

}  // namespace dnslocate::core
