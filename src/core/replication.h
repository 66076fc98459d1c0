// Query replication detection (§3.1): some interceptors *copy* queries
// instead of diverting them, so the client receives two responses — one
// from the interceptor's resolver (nearly always first, and thus accepted)
// and one from the true destination. The paper treats replication and
// interception as indistinguishable for localization; this prober makes the
// distinction observable by collecting every response within the timeout.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/classify.h"
#include "core/query_batch.h"
#include "core/transport.h"

namespace dnslocate::core {

/// Replication evidence for one resolver.
struct ReplicationObservation {
  std::size_t responses = 0;       // distinct datagrams received
  bool replicated = false;         // more than one response
  bool payloads_differ = false;    // the copies disagree (true interception
                                   // races the genuine answer)
  std::string first_display;       // what a stub resolver would accept
  std::string last_display;
};

struct ReplicationReport {
  std::map<resolvers::PublicResolverKind, ReplicationObservation> per_resolver;

  [[nodiscard]] bool any_replicated() const {
    for (const auto& [kind, obs] : per_resolver)
      if (obs.replicated) return true;
    return false;
  }
};

class ReplicationProber {
 public:
  struct Config {
    QueryOptions query;
    /// Seed for the transaction-ID stream (the pipeline derives this from
    /// the probe seed; the default only matters for direct stage calls).
    std::uint64_t id_seed = 0x8000;
  };

  ReplicationProber() = default;
  explicit ReplicationProber(Config config) : config_(config) {}

  /// Send each resolver's location query (one batch, all four resolvers)
  /// and count the responses that race back before the timeout.
  ReplicationReport run(AsyncQueryTransport& engine, bool* drained = nullptr);

 private:
  Config config_;
};

}  // namespace dnslocate::core
