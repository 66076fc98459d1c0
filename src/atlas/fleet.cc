#include "atlas/fleet.h"

#include "simnet/rng.h"

namespace dnslocate::atlas {
namespace {

using resolvers::PublicResolverKind;

/// Per-organization plan: population size plus explicit interception quotas.
/// The quota columns are calibrated so the fleet-wide totals land on the
/// paper's Table 4 / Table 5 / Figure 3 / Figure 4 shapes:
///   CPE interceptors: 49 (dnsmasq 23 incl. XB6, pihole 8, unbound 6,
///                         RedHat BIND 2, ten one-off strings)
///   all-four ISP interception: 62 spread over transparent / no-bogon /
///                         blocking / mixed / beyond-AS flavours
///   "one intercepted": 60, "one allowed": 46
struct OrgPlan {
  const char* org;
  std::uint32_t asn;
  const char* country;
  int probes;
  // CPE interceptor quotas (Table 5 string classes).
  int cpe_xb6 = 0;       // dnsmasq-2.78 strings via XDNS (§5)
  int cpe_dnsmasq = 0;   // generic intercepting dnsmasq
  int cpe_pihole = 0;
  int cpe_unbound = 0;
  int cpe_redhat = 0;
  const char* cpe_custom = nullptr;  // one-off version.bind string
  // ISP middlebox quotas (probes whose ISP intercepts all four resolvers).
  int isp_allfour = 0;          // transparent, answers bogons -> "within ISP"
  int isp_allfour_nobogon = 0;  // transparent, discards bogons -> "unknown"
  int isp_block = 0;            // filtering resolver -> "Status Modified"
  int isp_both = 0;             // mixed divert/block -> "Both"
  int external = 0;             // interceptor beyond the AS -> "unknown"
  // Partial-interception quotas (§4.1.1's minority patterns).
  int one_intercepted = 0;
  int one_allowed = 0;
  // Of the all-four ISP probes, how many also see (partial) v6 interception.
  int v6_intercept = 0;
};

constexpr OrgPlan kPlans[] = {
    {"Comcast", 7922, "US", 850, /*xb6*/ 10, 0, 0, 0, 0, nullptr,
     /*allfour*/ 5, /*nobogon*/ 2, /*block*/ 1, /*both*/ 0, /*ext*/ 0,
     /*one_int*/ 0, /*one_allow*/ 0, /*v6*/ 3},
    {"AT&T", 7018, "US", 280, 0, 0, 2, 0, 0, nullptr, 0, 0, 0, 0, 0, 0, 4, 0},
    {"Charter", 20115, "US", 260, 0, 0, 0, 0, 0, "Windows NS", 2, 0, 1, 0, 0, 0, 3, 1},
    {"Verizon", 701, "US", 240, 0, 0, 0, 0, 0, nullptr, 0, 0, 0, 0, 0, 0, 4, 0},
    {"Deutsche Telekom", 3320, "DE", 700, 0, 2, 1, 0, 0, nullptr, 2, 0, 1, 0, 0, 4, 3, 2},
    {"Vodafone DE", 3209, "DE", 380, 3, 0, 0, 0, 0, nullptr, 0, 0, 0, 0, 0, 0, 3, 0},
    {"Orange FR", 3215, "FR", 520, 0, 1, 0, 0, 0, nullptr, 2, 0, 0, 1, 0, 4, 2, 2},
    {"Free SAS", 12322, "FR", 420, 0, 0, 0, 2, 0, nullptr, 0, 0, 0, 0, 0, 3, 2, 0},
    {"BT", 2856, "GB", 420, 0, 1, 0, 0, 0, nullptr, 1, 0, 1, 1, 0, 4, 2, 0},
    {"Sky", 5607, "GB", 260, 0, 0, 1, 0, 0, nullptr, 0, 0, 0, 0, 0, 3, 0, 0},
    {"Virgin Media", 5089, "GB", 230, 0, 0, 0, 0, 0, nullptr, 0, 1, 0, 0, 0, 3, 0, 0},
    {"KPN", 1136, "NL", 330, 0, 1, 0, 0, 0, "9.16.1-Debian", 0, 0, 0, 0, 0, 3, 2, 0},
    {"Ziggo", 33915, "NL", 300, 0, 0, 1, 0, 0, nullptr, 0, 0, 0, 0, 0, 3, 2, 0},
    {"Telecom Italia", 3269, "IT", 280, 0, 0, 0, 0, 1, nullptr, 1, 0, 1, 0, 0, 3, 2, 1},
    {"Telefonica", 3352, "ES", 260, 0, 0, 0, 0, 1, nullptr, 1, 1, 0, 0, 0, 3, 2, 0},
    {"Telia", 3301, "SE", 240, 0, 1, 1, 0, 0, nullptr, 0, 0, 0, 0, 0, 3, 2, 0},
    {"Swisscom", 3303, "CH", 220, 0, 0, 1, 0, 0, nullptr, 0, 0, 0, 0, 0, 2, 2, 0},
    {"A1 Telekom", 8447, "AT", 180, 0, 0, 0, 0, 0, "9.16.15", 0, 0, 0, 0, 0, 2, 0, 0},
    {"Proximus", 5432, "BE", 170, 0, 0, 0, 0, 0, "PowerDNS Recursor 4.1.11", 0, 0, 0, 0, 0,
     2, 0, 0},
    {"Shaw", 6327, "CA", 300, 4, 0, 0, 0, 0, nullptr, 1, 0, 0, 0, 0, 2, 2, 1},
    {"Bell Canada", 577, "CA", 180, 0, 0, 0, 1, 0, nullptr, 0, 0, 0, 0, 0, 2, 1, 0},
    {"Rostelecom", 12389, "RU", 330, 0, 0, 0, 1, 0, nullptr, 3, 2, 1, 0, 1, 1, 2, 3},
    {"Orange PL", 5617, "PL", 210, 0, 0, 0, 1, 0, nullptr, 1, 1, 0, 0, 0, 2, 1, 0},
    {"O2 CZ", 5610, "CZ", 160, 0, 0, 0, 1, 0, nullptr, 0, 0, 0, 0, 0, 2, 1, 0},
    {"NTT", 4713, "JP", 230, 0, 0, 0, 0, 0, "Q9-P-9.16.15", 1, 0, 0, 0, 0, 2, 1, 0},
    {"Telstra", 1221, "AU", 210, 0, 0, 1, 0, 0, nullptr, 1, 0, 0, 0, 0, 2, 1, 0},
    {"Claro BR", 28573, "BR", 190, 0, 0, 0, 0, 0, "new", 1, 0, 0, 1, 1, 2, 1, 0},
    {"Airtel", 24560, "IN", 160, 0, 0, 0, 0, 0, "unknown", 1, 1, 0, 0, 1, 1, 0, 0},
    {"Telkom ZA", 37457, "ZA", 90, 0, 0, 0, 0, 0, nullptr, 0, 0, 0, 0, 0, 1, 0, 0},
    {"Turk Telekom", 9121, "TR", 250, 0, 0, 0, 0, 0, "none", 3, 2, 2, 1, 1, 0, 1, 3},
    {"Telkomsel", 7713, "ID", 120, 0, 0, 0, 0, 0, "huuh?", 1, 1, 0, 0, 1, 0, 0, 0},
    {"China Telecom", 4134, "CN", 100, 0, 0, 0, 0, 0, nullptr, 2, 0, 1, 1, 2, 0, 0, 2},
    {"Telmex", 8151, "MX", 130, 0, 0, 0, 0, 0, "Microsoft", 1, 0, 0, 0, 0, 1, 1, 0},
    {"Other networks", 64512, "--", 450, 0, 0, 0, 0, 0, nullptr, 0, 0, 0, 0, 0, 0, 0, 0},
};

/// Cycled assignment of which resolver a scoped policy touches; the weights
/// reflect the paper's observation that Google and Cloudflare are
/// intercepted (and allowed) most often.
constexpr PublicResolverKind kOneInterceptedCycle[] = {
    PublicResolverKind::cloudflare, PublicResolverKind::google, PublicResolverKind::cloudflare,
    PublicResolverKind::quad9,      PublicResolverKind::google, PublicResolverKind::opendns,
    PublicResolverKind::cloudflare, PublicResolverKind::quad9,  PublicResolverKind::google,
    PublicResolverKind::opendns};
constexpr PublicResolverKind kOneAllowedCycle[] = {
    PublicResolverKind::google, PublicResolverKind::quad9, PublicResolverKind::opendns,
    PublicResolverKind::cloudflare, PublicResolverKind::google, PublicResolverKind::quad9,
    PublicResolverKind::opendns, PublicResolverKind::google, PublicResolverKind::quad9,
    PublicResolverKind::opendns};

/// v6 partial-interception patterns (never all four — Table 4's v6 row).
const std::vector<std::vector<PublicResolverKind>>& v6_patterns() {
  static const std::vector<std::vector<PublicResolverKind>> patterns = {
      {PublicResolverKind::google, PublicResolverKind::cloudflare},
      {PublicResolverKind::google, PublicResolverKind::quad9, PublicResolverKind::opendns},
      {PublicResolverKind::cloudflare, PublicResolverKind::opendns, PublicResolverKind::quad9},
      {PublicResolverKind::google, PublicResolverKind::quad9},
  };
  return patterns;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : text) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  return h;
}

/// Unbound identities seen on CPE (Table 2's "routing.v2.pw" included).
constexpr const char* kUnboundIdentities[] = {"routing.v2.pw", "ns.home.arpa", "gw.local",
                                              "resolver1",     "cache01",      "unbound-fw"};
constexpr const char* kDnsmasqVersions[] = {"2.80", "2.85", "2.86", "2.87"};
constexpr const char* kPiholeVersions[] = {"2.87", "2.86"};

resolvers::SoftwareProfile isp_resolver_software(std::uint32_t asn) {
  switch (asn % 3) {
    case 0: return resolvers::bind9("9.11.3");
    case 1: return resolvers::unbound("1.13.1");
    default: return resolvers::powerdns("4.4.0");
  }
}

/// Probes an org contributes: its scaled share, raised to cover its quotas.
int org_probe_total(const OrgQuota& plan, double scale) {
  int quota_total = plan.cpe_xb6 + plan.cpe_dnsmasq + plan.cpe_pihole + plan.cpe_unbound +
                    plan.cpe_redhat + (plan.cpe_custom ? 1 : 0) + plan.isp_allfour +
                    plan.isp_allfour_nobogon + plan.isp_block + plan.isp_both + plan.external +
                    plan.one_intercepted + plan.one_allowed;
  int scaled = static_cast<int>(static_cast<double>(plan.probes) * scale);
  return std::max(scaled, quota_total);
}

}  // namespace

const std::vector<OrgQuota>& builtin_fleet_plan() {
  static const std::vector<OrgQuota> plan = [] {
    std::vector<OrgQuota> out;
    for (const OrgPlan& p : kPlans) {
      OrgQuota q;
      q.org = p.org;
      q.asn = p.asn;
      q.country = p.country;
      q.probes = p.probes;
      q.cpe_xb6 = p.cpe_xb6;
      q.cpe_dnsmasq = p.cpe_dnsmasq;
      q.cpe_pihole = p.cpe_pihole;
      q.cpe_unbound = p.cpe_unbound;
      q.cpe_redhat = p.cpe_redhat;
      if (p.cpe_custom != nullptr) q.cpe_custom = p.cpe_custom;
      q.isp_allfour = p.isp_allfour;
      q.isp_allfour_nobogon = p.isp_allfour_nobogon;
      q.isp_block = p.isp_block;
      q.isp_both = p.isp_both;
      q.external = p.external;
      q.one_intercepted = p.one_intercepted;
      q.one_allowed = p.one_allowed;
      q.v6_intercept = p.v6_intercept;
      out.push_back(std::move(q));
    }
    return out;
  }();
  return plan;
}

std::size_t site_index_for_country(const std::string& country) {
  return static_cast<std::size_t>(fnv1a(country) % resolvers::anycast_sites().size());
}

std::vector<ProbeSpec> generate_fleet(const FleetConfig& config) {
  return generate_fleet_from_plan(builtin_fleet_plan(), config);
}

std::vector<ProbeSpec> generate_fleet_from_plan(const std::vector<OrgQuota>& plans,
                                                const FleetConfig& config) {
  // Reserve up front: a ProbeSpec is large, and growing by reallocation
  // moved each one about twice.
  std::size_t fleet_size = 0;
  for (const OrgQuota& plan : plans)
    fleet_size += static_cast<std::size_t>(org_probe_total(plan, config.scale));
  std::vector<ProbeSpec> fleet;
  fleet.reserve(fleet_size);
  simnet::Rng rng(config.seed);
  std::uint32_t probe_id = 1000;
  int global_one_intercepted = 0;
  int global_one_allowed = 0;
  int global_unbound = 0;
  int global_dnsmasq = 0;
  int global_pihole = 0;
  int global_v6 = 0;

  for (const OrgQuota& plan : plans) {
    OrgInfo org{plan.org + " (AS" + std::to_string(plan.asn) + ")", plan.asn, plan.country};
    int total = org_probe_total(plan, config.scale);

    // Remaining quota counters for this org, consumed probe by probe.
    int xb6 = plan.cpe_xb6, dnsmasq_q = plan.cpe_dnsmasq, pihole_q = plan.cpe_pihole;
    int unbound_q = plan.cpe_unbound, redhat_q = plan.cpe_redhat;
    bool custom_q = plan.cpe_custom.has_value();
    int allfour = plan.isp_allfour, nobogon = plan.isp_allfour_nobogon;
    int block = plan.isp_block, both = plan.isp_both, external = plan.external;
    int one_int = plan.one_intercepted, one_allow = plan.one_allowed;
    int v6_int = plan.v6_intercept;
    bool first_allfour_in_org = true;

    for (int i = 0; i < total; ++i) {
      simnet::Rng probe_rng = rng.fork();
      ProbeSpec spec;
      spec.probe_id = probe_id++;
      spec.org = org;
      ScenarioConfig& sc = spec.scenario;
      sc.seed = probe_rng.next_u64() | 1;
      sc.isp_name = "as" + std::to_string(plan.asn);
      sc.asn = plan.asn;
      sc.home_index = static_cast<std::uint16_t>(i + 1);
      sc.site_index = site_index_for_country(plan.country);
      sc.instance = static_cast<unsigned>(probe_rng.uniform(4));
      sc.home_ipv6 = probe_rng.bernoulli(config.ipv6_fraction);
      sc.isp_resolver_software = isp_resolver_software(plan.asn);
      sc.faults = config.faults;
      sc.fault_classes = config.fault_classes;
      sc.retry = config.retry;
      sc.adversary = config.adversary;
      sc.run_fingerprint = config.run_fingerprint;

      // `allow_chaos_forwarder` is false for homes whose ISP intercepts:
      // pairing the two creates the (deliberately quota'd) §6
      // misclassification, so the random mix must not add more of them.
      auto benign_cpe = [&](bool allow_chaos_forwarder) {
        double roll = probe_rng.uniform01();
        CpeStyle style;
        if (roll < 0.52) {
          style.kind = CpeStyle::Kind::benign_closed;
        } else if (roll < 0.80) {
          style.kind = CpeStyle::Kind::benign_open_dnsmasq;
          style.version = kDnsmasqVersions[probe_rng.uniform(4)];
        } else if (roll < 0.90) {
          style.kind = CpeStyle::Kind::xb6_healthy;
        } else if (roll < 0.95 || !allow_chaos_forwarder) {
          style.kind = CpeStyle::Kind::benign_open_chaos_nxdomain;
        } else {
          style.kind = CpeStyle::Kind::benign_open_chaos_forwarder;
        }
        return style;
      };

      // --- consume quotas in a fixed order ---
      if (xb6 > 0) {
        --xb6;
        sc.cpe.kind = CpeStyle::Kind::xb6_buggy;
      } else if (dnsmasq_q > 0) {
        --dnsmasq_q;
        sc.cpe.kind = CpeStyle::Kind::intercept_dnsmasq;
        sc.cpe.version = kDnsmasqVersions[static_cast<std::size_t>(global_dnsmasq++) % 4];
      } else if (pihole_q > 0) {
        --pihole_q;
        sc.cpe.kind = CpeStyle::Kind::pihole;
        sc.cpe.version = kPiholeVersions[static_cast<std::size_t>(global_pihole++) % 2];
      } else if (unbound_q > 0) {
        --unbound_q;
        sc.cpe.kind = CpeStyle::Kind::intercept_unbound;
        sc.cpe.version = "1.9.0";
        sc.cpe.identity = kUnboundIdentities[static_cast<std::size_t>(global_unbound++) % 6];
      } else if (redhat_q > 0) {
        --redhat_q;
        sc.cpe.kind = CpeStyle::Kind::intercept_custom;
        sc.cpe.custom = resolvers::bind9("9.11.4-P2-RedHat-9.11.4-26.P2.el7_9.3");
      } else if (custom_q) {
        custom_q = false;
        sc.cpe.kind = CpeStyle::Kind::intercept_custom;
        sc.cpe.custom = resolvers::custom_string(*plan.cpe_custom);
      } else if (allfour > 0 || nobogon > 0 || block > 0 || both > 0) {
        // ISP middlebox intercepting every resolver.
        sc.isp_policy.middlebox_enabled = true;
        sc.isp_policy.intercept_all_port53 = true;
        if (allfour > 0) {
          --allfour;
        } else if (nobogon > 0) {
          --nobogon;
          sc.isp_policy.ignore_bogon_queries = true;
        } else if (block > 0) {
          --block;
          sc.isp_policy.default_action = isp::TargetAction::divert_block;
        } else {
          --both;
          sc.isp_policy.target_actions[PublicResolverKind::quad9] =
              isp::TargetAction::divert_block;
        }
        // A few of these homes run the §6 misclassification CPE.
        if (first_allfour_in_org && plan.isp_allfour >= 3) {
          sc.cpe.kind = CpeStyle::Kind::benign_open_chaos_forwarder;
        } else {
          sc.cpe = benign_cpe(false);
        }
        first_allfour_in_org = false;
        // Partial v6 interception for the quota'd subset.
        if (v6_int > 0) {
          --v6_int;
          sc.home_ipv6 = true;
          const auto& pattern =
              v6_patterns()[static_cast<std::size_t>(global_v6++) % v6_patterns().size()];
          for (PublicResolverKind kind : pattern)
            sc.isp_policy.target_actions_v6[kind] = isp::TargetAction::divert;
        }
      } else if (external > 0) {
        --external;
        sc.external_interceptor = true;
        sc.cpe = benign_cpe(false);
      } else if (one_int > 0) {
        --one_int;
        sc.isp_policy.middlebox_enabled = true;
        sc.isp_policy.intercept_all_port53 = false;
        PublicResolverKind kind =
            kOneInterceptedCycle[static_cast<std::size_t>(global_one_intercepted++) % 10];
        sc.isp_policy.target_actions[kind] = isp::TargetAction::divert;
        // Roughly two thirds of scoped proxies still answer bogons.
        sc.isp_policy.scoped_answers_bogons = (global_one_intercepted % 3) != 0;
        sc.cpe = benign_cpe(false);
      } else if (one_allow > 0) {
        --one_allow;
        sc.isp_policy.middlebox_enabled = true;
        sc.isp_policy.intercept_all_port53 = true;
        PublicResolverKind kind =
            kOneAllowedCycle[static_cast<std::size_t>(global_one_allowed++) % 10];
        sc.isp_policy.target_actions[kind] = isp::TargetAction::pass;
        sc.cpe = benign_cpe(false);
      } else {
        sc.cpe = benign_cpe(true);
      }

      fleet.push_back(std::move(spec));
    }
  }
  return fleet;
}

}  // namespace dnslocate::atlas
