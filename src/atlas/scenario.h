// One probe's world: a measurement host behind a CPE, inside an ISP, wired
// to the simulated Internet core and the four public resolvers — plus the
// ground truth of where (if anywhere) interception actually happens, so
// experiments can score the technique against reality.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/pipeline.h"
#include "core/sim_transport.h"
#include "cpe/cpe_device.h"
#include "cpe/presets.h"
#include "isp/backbone.h"
#include "isp/isp_network.h"
#include "simnet/adversary.h"

namespace dnslocate::atlas {

/// Which CPE population a probe's home router belongs to.
struct CpeStyle {
  enum class Kind {
    benign_closed,
    benign_open_dnsmasq,
    benign_open_chaos_forwarder,  // §6 misclassification case
    benign_open_chaos_nxdomain,
    xb6_healthy,
    xb6_buggy,  // §5 case study
    pihole,
    intercept_dnsmasq,
    intercept_unbound,
    intercept_custom,
    intercept_to_resolver,
  };
  Kind kind = Kind::benign_closed;
  std::string version = "2.85";           // dnsmasq/pihole/unbound version
  std::optional<std::string> identity;    // unbound id.server string
  resolvers::SoftwareProfile custom;      // for intercept_custom

  /// Whether this style diverts LAN DNS (the DNAT rule exists).
  [[nodiscard]] bool intercepts() const;
};

/// Adversaries layered onto the probe's world (all inactive by default;
/// see simnet/adversary.h for the models).
struct AdversaryConfig {
  /// Spoofing injector installed on the transit core: races every answer
  /// that crosses the backbone. Queries intercepted at the CPE or ISP never
  /// reach the core, so localization of *real* interceptors is unaffected —
  /// exactly the invariant bench/ablation_adversary pins.
  std::optional<simnet::SpooferConfig> transit_spoofer;
  /// DPI personality on the ISP access router (the whole home's uplink).
  std::optional<simnet::DpiPersonality> isp_dpi;
  /// DPI personality on the CPE itself.
  std::optional<simnet::DpiPersonality> cpe_dpi;

  [[nodiscard]] bool active() const {
    return transit_spoofer.has_value() || isp_dpi.has_value() || cpe_dpi.has_value();
  }
};

/// Everything that varies between probes.
struct ScenarioConfig {
  std::uint64_t seed = 1;
  std::string isp_name = "isp";
  std::uint32_t asn = 64500;
  std::uint16_t home_index = 1;  // which customer address this home gets
  CpeStyle cpe;
  isp::IspPolicy isp_policy;
  resolvers::SoftwareProfile isp_resolver_software = resolvers::bind9("9.11.3");
  dnswire::Rcode blocking_rcode = dnswire::Rcode::REFUSED;
  bool external_interceptor = false;
  bool home_ipv6 = false;
  std::size_t site_index = 0;  // anycast site the probe's region maps to
  unsigned instance = 0;

  /// Link-fault injection (inactive by default). The profile applies to the
  /// link classes named in `fault_classes`; an empty list applies it to
  /// every link in the world.
  simnet::FaultProfile faults;
  std::vector<std::string> fault_classes = {"access"};  // the last mile
  /// Seed for the fault plan's independent stream; 0 derives it from
  /// `seed` so existing scenarios stay bit-identical.
  std::uint64_t fault_seed = 0;
  /// Retry policy stamped onto every pipeline step's QueryOptions
  /// (single-shot by default, matching the paper).
  core::RetryPolicy retry;
  /// Adversarial interceptors layered onto the world (inactive by default).
  AdversaryConfig adversary;
  /// Run the pipeline's active fingerprint stage (core/fingerprint.h).
  bool run_fingerprint = false;
};

/// What is *actually* happening, independent of what the technique infers.
struct GroundTruth {
  bool cpe_intercepts = false;
  bool isp_intercepts_v4 = false;
  bool isp_intercepts_v6 = false;
  bool external_intercepts = false;
  bool isp_answers_bogons = false;
  /// The verdict a perfect run of the paper's technique should produce.
  core::InterceptorLocation expected = core::InterceptorLocation::not_intercepted;
};

/// A fully built probe world. Owns the simulator and every device in it.
class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& config);

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  [[nodiscard]] simnet::Simulator& sim() { return sim_; }
  [[nodiscard]] simnet::FaultPlan& fault_plan() { return fault_plan_; }
  [[nodiscard]] core::SimTransport& transport() { return *transport_; }
  [[nodiscard]] simnet::Device& host() { return *host_; }
  [[nodiscard]] cpe::CpeHandles& cpe_handles() { return cpe_; }
  [[nodiscard]] isp::IspHandles& isp_handles() { return isp_; }
  [[nodiscard]] isp::BackboneHandles& backbone() { return backbone_; }

  [[nodiscard]] const netbase::IpAddress& cpe_wan_v4() const { return cpe_wan_v4_; }
  [[nodiscard]] const GroundTruth& ground_truth() const { return ground_truth_; }
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }

  /// Installed adversary hooks (null when the knob is off) — tests read
  /// their observation counters.
  [[nodiscard]] simnet::SpooferHook* spoofer() { return spoofer_.get(); }
  [[nodiscard]] simnet::DpiHook* isp_dpi() { return isp_dpi_.get(); }
  [[nodiscard]] simnet::DpiHook* cpe_dpi() { return cpe_dpi_.get(); }

  /// Pipeline configuration matching this probe (CPE public IP filled in).
  [[nodiscard]] core::PipelineConfig pipeline_config() const;

 private:
  static GroundTruth compute_ground_truth(const ScenarioConfig& config);

  ScenarioConfig config_;
  simnet::Simulator sim_;
  simnet::FaultPlan fault_plan_;
  isp::BackboneHandles backbone_;
  isp::IspHandles isp_;
  simnet::Device* host_ = nullptr;
  cpe::CpeHandles cpe_;
  netbase::IpAddress cpe_wan_v4_;
  std::optional<netbase::IpAddress> cpe_wan_v6_;
  std::unique_ptr<core::SimTransport> transport_;
  std::shared_ptr<simnet::SpooferHook> spoofer_;
  std::shared_ptr<simnet::DpiHook> isp_dpi_;
  std::shared_ptr<simnet::DpiHook> cpe_dpi_;
  GroundTruth ground_truth_;
};

/// Deterministic per-ASN addressing helpers (shared with the fleet).
netbase::Prefix customer_prefix_v4(std::uint32_t asn);
netbase::Prefix customer_prefix_v6(std::uint32_t asn);
netbase::IpAddress customer_address_v4(std::uint32_t asn, std::uint16_t home_index);
netbase::IpAddress customer_address_v6(std::uint32_t asn, std::uint16_t home_index);
netbase::IpAddress isp_resolver_v4(std::uint32_t asn);
netbase::IpAddress isp_resolver_v6(std::uint32_t asn);

}  // namespace dnslocate::atlas
