#include "simnet/fault.h"

#include <algorithm>

#include "netbase/endpoint.h"

namespace dnslocate::simnet {

bool FaultProfile::active() const {
  bool burst = p_good_to_bad > 0 && loss_bad > 0;
  return burst || loss_good > 0 || reorder_rate > 0 || duplicate_rate > 0 ||
         jitter_max > SimDuration{0} || truncate_rate > 0;
}

FaultProfile FaultProfile::burst_loss(double mean_loss, double mean_burst_len) {
  // Stationary bad-state occupancy pi_b = p_gb / (p_gb + p_bg); with
  // loss_bad = 1 and loss_good = 0 the mean loss rate *is* pi_b, and the
  // mean burst length is 1 / p_bg packets. Solve for p_gb.
  FaultProfile profile;
  if (mean_loss <= 0) return profile;
  mean_loss = std::min(mean_loss, 0.95);
  if (mean_burst_len < 1.0) mean_burst_len = 1.0;
  profile.p_bad_to_good = 1.0 / mean_burst_len;
  profile.p_good_to_bad = profile.p_bad_to_good * mean_loss / (1.0 - mean_loss);
  profile.loss_good = 0.0;
  profile.loss_bad = 1.0;
  return profile;
}

const FaultProfile& FaultPlan::profile_for(const std::string& fault_class) const {
  if (!fault_class.empty()) {
    auto it = class_profiles_.find(fault_class);
    if (it != class_profiles_.end()) return it->second;
  }
  return default_profile_;
}

FaultPlan::LinkState FaultPlan::link_state(std::uint64_t link_key) const {
  LinkState state;
  state.rng = Rng(seed_ ^ (link_key * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull));
  return state;
}

FaultPlan::Decision FaultPlan::decide(const FaultProfile& profile, LinkState& state,
                                      const UdpPacket& packet) {
  Decision decision;
  if (!profile.active()) return decision;

  // Advance the Gilbert–Elliott chain once per packet, then sample the
  // state's loss probability.
  if (state.bad) {
    if (state.rng.bernoulli(profile.p_bad_to_good)) state.bad = false;
  } else {
    if (state.rng.bernoulli(profile.p_good_to_bad)) state.bad = true;
  }
  double loss = state.bad ? profile.loss_bad : profile.loss_good;
  if (loss > 0 && state.rng.bernoulli(loss)) {
    decision.drop = true;
    decision.burst = state.bad;
    if (state.bad)
      ++counters_.burst_drops;
    else
      ++counters_.random_drops;
    return decision;
  }

  if (profile.jitter_max > SimDuration{0}) {
    auto jitter = SimDuration(static_cast<SimDuration::rep>(
        state.rng.uniform(static_cast<std::uint64_t>(profile.jitter_max.count()))));
    if (jitter > SimDuration{0}) {
      decision.extra_delay += jitter;
      ++counters_.jittered;
    }
  }

  if (profile.reorder_rate > 0 && state.rng.bernoulli(profile.reorder_rate)) {
    decision.extra_delay += profile.reorder_hold;
    ++counters_.reordered;
  }

  if (profile.duplicate_rate > 0 && state.rng.bernoulli(profile.duplicate_rate)) {
    decision.duplicate = true;
    ++counters_.duplicated;
  }

  // Truncation models a middlebox mangling the response on its way back:
  // only UDP payloads from the DNS/DoT service ports, and only when there
  // is something left to chop (an empty fragment would vanish entirely).
  bool is_response = packet.kind == PacketKind::udp &&
                     (packet.sport == netbase::kDnsPort || packet.sport == netbase::kDotPort);
  if (is_response && packet.payload.size() > 1 && profile.truncate_rate > 0 &&
      state.rng.bernoulli(profile.truncate_rate)) {
    decision.truncate_to = 1 + static_cast<std::size_t>(
                                   state.rng.uniform(packet.payload.size() - 1));
    ++counters_.truncated;
  }
  return decision;
}

}  // namespace dnslocate::simnet
