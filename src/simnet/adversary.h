// Adversarial interceptor models: nodes that *race* or *mangle* DNS rather
// than answer it like the cooperative interceptors of §3.
//
// - SpooferHook models an injector in the style of "Whac-A-Mole: Six Years
//   of DNS Spoofing" (arXiv 2011.12978): it watches port-53 queries cross a
//   device and injects a forged answer that races the genuine one, with a
//   deterministic injection-lead-time knob. On-path it copies the observed
//   transaction ID and 0x20 casing (the forgery passes RFC 5452 and the
//   transports surface it as a *conflict*); off-path it guesses IDs from a
//   seeded stream (the forgeries fail acceptance and are counted as
//   spoof-suspected evidence).
// - DpiHook models a DPI middlebox with configurable parsing ambiguities in
//   the style of "Fingerprinting DPI Devices by Their Ambiguities"
//   (arXiv 2509.09081): 0x20 case folding, EDNS OPT stripping, and
//   truncation-bit rewriting. Each ambiguity is observable end-to-end, so
//   the personality can be actively fingerprinted (core/fingerprint.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "netbase/ipv4.h"
#include "netbase/ipv6.h"
#include "simnet/device.h"
#include "simnet/rng.h"
#include "simnet/time.h"

namespace dnslocate::simnet {

/// Knobs for a spoofing injector.
struct SpooferConfig {
  /// On-path spoofers read the transaction ID and exact question casing
  /// from the observed query, so their forgery passes RFC 5452 acceptance
  /// and must be caught by answer arbitration. Off-path spoofers guess IDs
  /// from the seeded stream below.
  bool on_path = true;
  /// How long after observing the query the forgery is injected. The
  /// genuine answer returns after the resolver round trip (~12 ms from the
  /// transit core in the default topology), so this directly sets the
  /// forgery's lead over — or lag behind — the real answer.
  SimDuration injection_delay = std::chrono::microseconds(100);
  /// Off-path only: forged IDs injected per observed query.
  unsigned id_guesses = 3;
  /// Source the forgery from an address other than the queried server
  /// (wrong egress). Such packets die at the client's conntrack-checking
  /// NATs or the transports' source check — useful for testing both.
  bool forge_source = false;
  netbase::Ipv4Address forged_source_v4 = netbase::Ipv4Address::from_bytes({203, 0, 113, 66});
  /// IP TTL stamped on injected packets. Injectors rarely match the
  /// genuine server's hop distance; a distinctive value makes the forgery
  /// attributable in traces.
  std::uint8_t injected_ttl = 23;
  /// Seed for the off-path ID-guess stream (deterministic per scenario).
  std::uint64_t seed = 0x5e00f;
  /// Payload of forged TXT answers (location queries resolve to airport
  /// codes; this string matches no resolver's catalogue).
  std::string display = "SPOOFED";
  /// Forged A/AAAA answer addresses.
  netbase::Ipv4Address answer_v4 = netbase::Ipv4Address::from_bytes({198, 51, 100, 66});
  netbase::Ipv6Address answer_v6{};
};

/// Injects forged answers for port-53 queries crossing the hosting device.
/// Install with Device::add_hook on a forwarding device (typically the
/// transit core); the hook observes without mutating and schedules its
/// forgery via Device::forward_injected.
class SpooferHook : public PacketHook {
 public:
  explicit SpooferHook(SpooferConfig config);

  HookVerdict prerouting(Simulator& sim, Device& device, UdpPacket& packet,
                         std::optional<PortId> in_port) override;

  [[nodiscard]] std::uint64_t queries_seen() const { return queries_seen_; }
  [[nodiscard]] std::uint64_t injections() const { return injections_; }
  [[nodiscard]] const SpooferConfig& config() const { return config_; }

 private:
  SpooferConfig config_;
  Rng rng_;
  std::uint64_t queries_seen_ = 0;
  std::uint64_t injections_ = 0;
};

/// One DPI middlebox personality: a vendor string plus the parsing
/// ambiguities it exhibits. The zoo() below enumerates the personalities
/// the fingerprint prober can name.
struct DpiPersonality {
  std::string vendor = "none";
  /// Lowercases the question name of forwarded queries. RFC 5452 still
  /// accepts the (case-folded) echo, but the 0x20 signal is destroyed and
  /// the transports record a case-mismatch on every answer.
  bool fold_case = false;
  /// Strips EDNS OPT records from forwarded queries. The server then
  /// answers without the RFC 6891 OPT echo — and with a 512-byte payload
  /// ceiling the client never asked for.
  bool strip_edns = false;
  /// Sets the truncation bit on forwarded responses while leaving the
  /// answer sections intact — a self-contradictory message no real server
  /// emits.
  bool rewrite_tc = false;

  [[nodiscard]] bool active() const { return fold_case || strip_edns || rewrite_tc; }
};

/// The personalities shipped with the zoo, for tests and the ablation.
/// Vendor names are fictional; each maps to one observable ambiguity set.
DpiPersonality dpi_foldix();    // fold_case
DpiPersonality dpi_optstrip();  // strip_edns
DpiPersonality dpi_truncor();   // rewrite_tc
DpiPersonality dpi_omnibox();   // all three

/// Applies a DpiPersonality to port-53 traffic crossing the hosting device.
/// Query edits (case folding, EDNS stripping) decode and re-encode the
/// query; the TC rewrite sets the header bit in place on any response whose
/// structure walks (decode_view), so a response with sound structure but
/// malformed typed RDATA also gets TC. Packets that fail to parse pass
/// through untouched (real DPI fails open on unparsable traffic).
class DpiHook : public PacketHook {
 public:
  explicit DpiHook(DpiPersonality personality);

  HookVerdict prerouting(Simulator& sim, Device& device, UdpPacket& packet,
                         std::optional<PortId> in_port) override;

  [[nodiscard]] std::uint64_t queries_mutated() const { return queries_mutated_; }
  [[nodiscard]] std::uint64_t responses_mutated() const { return responses_mutated_; }
  [[nodiscard]] const DpiPersonality& personality() const { return personality_; }

 private:
  DpiPersonality personality_;
  std::uint64_t queries_mutated_ = 0;
  std::uint64_t responses_mutated_ = 0;
};

}  // namespace dnslocate::simnet
