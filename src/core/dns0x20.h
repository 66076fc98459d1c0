// DNS-0x20 integrity probing — a complementary interception signal.
//
// Clients that randomize the 0x20 (case) bits of the query name expect the
// response to echo the question byte-for-byte. A pure DNAT interceptor
// relays the client's packet and the echo survives; a *proxying*
// interceptor (a CPE forwarder that re-issues the query upstream) may
// re-encode the name and lose the case pattern. The comparison with the
// version.bind technique is instructive: 0x20 catches only the proxy class
// and is therefore not a localization primitive — exactly why the paper
// builds on version.bind instead. (See bench/ablation_0x20.)
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/query_batch.h"
#include "resolvers/public_resolver.h"
#include "simnet/rng.h"

namespace dnslocate::core {

/// Outcome for one resolver.
enum class CaseEchoResult {
  preserved,       // question echoed with the exact case pattern
  rewritten,       // answered, but the case pattern was lost (a proxy)
  no_question,     // response carried no question section
  timed_out,
};

std::string_view to_string(CaseEchoResult result);

struct Dns0x20Report {
  std::map<resolvers::PublicResolverKind, CaseEchoResult> per_resolver;
  std::map<resolvers::PublicResolverKind, std::string> sent_names;
};

class Dns0x20Prober {
 public:
  struct Config {
    QueryOptions query;
    /// Name whose case gets randomized (must resolve; default probe domain).
    std::string base_name = "probe.dnslocate.example";
    std::uint64_t seed = 0x20;
  };

  Dns0x20Prober() = default;
  explicit Dns0x20Prober(Config config) : config_(std::move(config)) {}

  Dns0x20Report run(AsyncQueryTransport& engine);

  /// Randomize letter case deterministically from `rng` (exposed for tests).
  static std::string encode_0x20(const std::string& name, simnet::Rng& rng);

 private:
  Config config_;
  std::uint16_t next_id_ = 0x9000;
};

}  // namespace dnslocate::core
