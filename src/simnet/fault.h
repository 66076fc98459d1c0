// Deterministic link-fault injection: burst loss (Gilbert–Elliott),
// reordering, duplication, latency jitter, and response truncation.
//
// The localization technique treats *silence* as signal (§3.3: an
// unanswered bogon probe means "unknown", not "lost packet"), so its
// accuracy under realistic residential-network faults is an empirical
// question. A FaultPlan makes those faults reproducible: every decision is
// drawn from a per-link splitmix64 stream seeded from (plan seed, link id),
// so a whole fleet replays bit-identically and adding a link never perturbs
// the fault stream of another.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "simnet/packet.h"
#include "simnet/rng.h"
#include "simnet/time.h"

namespace dnslocate::simnet {

/// Per-link fault parameters. All probabilities are per-packet; the default
/// profile injects nothing.
struct FaultProfile {
  // --- burst loss: Gilbert–Elliott two-state chain, advanced per packet ---
  /// P(good -> bad) evaluated for each packet seen while in the good state.
  double p_good_to_bad = 0.0;
  /// P(bad -> good); the mean burst length is 1 / p_bad_to_good packets.
  double p_bad_to_good = 0.25;
  /// Drop probability while in the good state (residual random loss).
  double loss_good = 0.0;
  /// Drop probability while in the bad state (1.0 = every packet of a burst).
  double loss_bad = 1.0;

  // --- reordering: hold a packet back so later ones overtake it ---
  double reorder_rate = 0.0;
  SimDuration reorder_hold = std::chrono::milliseconds(8);

  // --- duplication: deliver a second, byte-identical copy ---
  double duplicate_rate = 0.0;
  SimDuration duplicate_gap = std::chrono::microseconds(200);

  // --- latency jitter: uniform extra delay in [0, jitter_max) ---
  SimDuration jitter_max{0};

  // --- truncation: chop DNS response payloads mid-message ---
  /// Applied only to UDP payloads from the DNS/DoT server ports, modelling
  /// middleboxes that mangle responses; the receiver's decoder must reject
  /// the fragment without crashing or over-reading.
  double truncate_rate = 0.0;

  /// True when any fault can ever fire.
  [[nodiscard]] bool active() const;

  /// Gilbert–Elliott profile with the given stationary mean loss rate and
  /// mean burst length (packets), losing every packet of a burst.
  static FaultProfile burst_loss(double mean_loss, double mean_burst_len = 4.0);
};

/// Seeded fault-injection plan consulted by Simulator::transmit for every
/// packet crossing a link. Profiles are selected by the link's
/// `LinkConfig::fault_class` tag; links with no matching class fall back to
/// the default profile. The plan holds the profiles, the seed and the
/// tallies; each directed link's own state (LinkState) lives with the link.
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 1) : seed_(seed) {}

  /// Profile applied to links whose fault_class has no explicit override.
  void set_default_profile(FaultProfile profile) {
    default_profile_ = profile;
    ++generation_;
  }
  /// Profile for one class of links ("lan", "access", "isp", "transit").
  void set_class_profile(const std::string& fault_class, FaultProfile profile) {
    class_profiles_[fault_class] = profile;
    ++generation_;
  }
  /// The profile a link of `fault_class` gets. The reference stays valid
  /// for the plan's lifetime; what it should be changes when generation()
  /// does.
  [[nodiscard]] const FaultProfile& profile_for(const std::string& fault_class) const;
  /// Bumped by every profile change, so a link that cached profile_for()
  /// sees the change on its next packet, also after its first transmit.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// One directed link's fault state: its Gilbert–Elliott state and its own
  /// random stream.
  struct LinkState {
    Rng rng{0};
    bool bad = false;  // Gilbert–Elliott state
  };
  /// Fresh state for the directed link `link_key`. The stream is seeded
  /// from (plan seed, link key), so draws on one link never perturb
  /// another's, whatever order links first see traffic.
  [[nodiscard]] LinkState link_state(std::uint64_t link_key) const;

  /// What the plan decided for one packet on one directed link.
  struct Decision {
    bool drop = false;
    bool burst = false;  // drop happened in the bad (burst) state
    bool duplicate = false;
    SimDuration extra_delay{0};
    /// Truncate the payload to this many bytes before delivery.
    std::optional<std::size_t> truncate_to;
  };

  /// Advance one link's fault state machine for `packet` under `profile`
  /// (the link's profile_for() result) and decide its fate.
  Decision decide(const FaultProfile& profile, LinkState& state, const UdpPacket& packet);

  /// Per-cause tallies (complementing simnet::DropCounters, which counts
  /// only drops: these also count the non-drop faults).
  struct Counters {
    std::uint64_t burst_drops = 0;   // lost in the bad state
    std::uint64_t random_drops = 0;  // lost in the good state
    std::uint64_t reordered = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t truncated = 0;
    std::uint64_t jittered = 0;  // packets given nonzero jitter

    [[nodiscard]] std::uint64_t drops() const { return burst_drops + random_drops; }
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = Counters{}; }

 private:
  std::uint64_t seed_;
  std::uint64_t generation_ = 1;
  FaultProfile default_profile_;
  std::unordered_map<std::string, FaultProfile> class_profiles_;
  Counters counters_;
};

}  // namespace dnslocate::simnet
