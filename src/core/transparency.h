// Transparency test (§4.1.2): an ordinary A query for a whoami-style domain
// to every intercepted resolver confirms interception (the egress in the
// answer is not the target's) and classifies the interceptor's behaviour
// (Figure 3: Transparent / Status Modified / Both).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/query_batch.h"
#include "core/transport.h"
#include "core/verdict.h"
#include "resolvers/public_resolver.h"

namespace dnslocate::core {

/// Per-resolver transparency observation.
enum class ResolverTransparency {
  transparent,      // valid answer, resolved correctly (by someone else)
  status_modified,  // deliberate DNS error status (SERVFAIL/NOTIMP/REFUSED...)
  answered_by_target,  // egress matches the target's ranges (not intercepted)
  timed_out,
};

std::string_view to_string(ResolverTransparency value);

struct TransparencyObservation {
  ResolverTransparency klass = ResolverTransparency::timed_out;
  std::string display;  // answer address or rcode
};

/// §4.1.2 report over the intercepted resolvers.
struct TransparencyReport {
  std::map<resolvers::PublicResolverKind, TransparencyObservation> per_resolver;
  TransparencyClass overall = TransparencyClass::indeterminate;
};

class TransparencyTester {
 public:
  struct Config {
    QueryOptions query;
    netbase::IpFamily family = netbase::IpFamily::v4;
    /// Seed for the transaction-ID stream (the pipeline derives this from
    /// the probe seed; the default only matters for direct stage calls).
    std::uint64_t id_seed = 0x4000;
  };

  TransparencyTester() = default;
  explicit TransparencyTester(Config config) : config_(config) {}

  /// One whoami query per intercepted resolver, fanned out as one batch.
  TransparencyReport run(AsyncQueryTransport& engine,
                         const std::vector<resolvers::PublicResolverKind>& intercepted,
                         bool* drained = nullptr);

 private:
  Config config_;
};

}  // namespace dnslocate::core
