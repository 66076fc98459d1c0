// DoT interception probing — §6's open question, made executable.
//
// The paper notes that DoH and strict-profile DoT prevent interception
// outright, while the RFC 7858 "opportunistic privacy profile" disables
// certificate validation and "could allow interception". This prober runs
// the location query over UDP/53, strict DoT, and opportunistic DoT and
// compares the outcomes:
//
//   UDP intercepted + opportunistic intercepted + strict silent
//       -> a DNAT interceptor sits on the path and also grabs port 853;
//          strict clients are protected (their handshake fails closed),
//          opportunistic clients are silently hijacked.
//   UDP intercepted + both DoT channels standard
//       -> the interceptor only touches port 53; any DoT escapes it.
//   UDP intercepted + both DoT channels silent
//       -> the middlebox blocks port 853, forcing fallback to UDP/53.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/query_batch.h"
#include "core/transport.h"

namespace dnslocate::core {

/// Outcome of one (resolver, channel) probe.
struct DotChannelResult {
  LocationVerdict verdict = LocationVerdict::timed_out;
  std::string display;
};

/// What the comparison across channels implies for one resolver.
enum class DotFinding {
  not_intercepted,          // every channel standard
  dot_blocked,              // UDP intercepted, both DoT channels silent
  opportunistic_hijacked,   // UDP + opportunistic intercepted, strict silent
  dot_escapes,              // UDP intercepted, both DoT channels standard
  inconsistent,             // anything else (mixed/unreachable)
};

std::string_view to_string(DotFinding finding);

struct DotResolverReport {
  std::map<simnet::Channel, DotChannelResult> channels;
  DotFinding finding = DotFinding::inconsistent;
};

struct DotReport {
  std::map<resolvers::PublicResolverKind, DotResolverReport> per_resolver;
};

class DotProber {
 public:
  struct Config {
    QueryOptions query;
  };

  DotProber() = default;
  explicit DotProber(Config config) : config_(config) {}

  /// Probe every public resolver across the three channels, as one
  /// declarative QueryBatch (results interpreted by index; unsupported
  /// channels get placeholder slots and consume no transaction IDs).
  /// Requires a transport with DoT channel support (the simulated one); on
  /// transports without it the DoT channels report timed_out and findings
  /// come back `inconsistent`. `*drained` is set when cancellation cut the
  /// batch short.
  DotReport run(AsyncQueryTransport& engine, bool* drained = nullptr);

  /// Derive the finding from three channel verdicts (exposed for tests).
  static DotFinding classify(const DotResolverReport& report);

 private:
  Config config_;
  std::uint16_t next_id_ = 0x6000;
};

}  // namespace dnslocate::core
