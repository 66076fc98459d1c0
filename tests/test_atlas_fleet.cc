// Fleet generator tests: determinism, quota accounting against the paper's
// calibration targets, scaling, and a scaled end-to-end measurement.
#include <gtest/gtest.h>

#include "atlas/fleet.h"
#include "atlas/measurement.h"
#include "report/aggregate.h"

namespace dnslocate::atlas {
namespace {

TEST(Fleet, DeterministicFromSeed) {
  auto a = generate_fleet({});
  auto b = generate_fleet({});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(a[i].probe_id, b[i].probe_id);
    EXPECT_EQ(a[i].org.org, b[i].org.org);
    EXPECT_EQ(a[i].scenario.seed, b[i].scenario.seed);
    EXPECT_EQ(a[i].scenario.cpe.kind, b[i].scenario.cpe.kind);
    EXPECT_EQ(a[i].scenario.home_ipv6, b[i].scenario.home_ipv6);
  }
}

TEST(Fleet, SizeMatchesThePilotStudy) {
  auto fleet = generate_fleet({});
  EXPECT_GT(fleet.size(), 9500u);  // "over 9,600 probes" in the paper
  EXPECT_LT(fleet.size(), 9800u);
}

TEST(Fleet, QuotasMatchCalibration) {
  auto fleet = generate_fleet({});
  std::size_t cpe_interceptors = 0;
  std::size_t isp_middleboxes = 0;
  std::size_t externals = 0;
  std::size_t ipv6_homes = 0;
  std::size_t xb6 = 0, pihole = 0, unbound = 0;
  for (const auto& spec : fleet) {
    if (spec.scenario.cpe.intercepts()) ++cpe_interceptors;
    if (spec.scenario.isp_policy.middlebox_enabled) ++isp_middleboxes;
    if (spec.scenario.external_interceptor) ++externals;
    if (spec.scenario.home_ipv6) ++ipv6_homes;
    if (spec.scenario.cpe.kind == CpeStyle::Kind::xb6_buggy) ++xb6;
    if (spec.scenario.cpe.kind == CpeStyle::Kind::pihole) ++pihole;
    if (spec.scenario.cpe.kind == CpeStyle::Kind::intercept_unbound) ++unbound;
  }
  EXPECT_EQ(cpe_interceptors, 49u);  // paper: 49 of 220
  EXPECT_EQ(externals, 7u);
  EXPECT_EQ(isp_middleboxes, 162u);  // 56 all-four + 60 scoped + 46 one-allowed
  EXPECT_EQ(xb6, 17u);               // Comcast 10 + Shaw 4 + Vodafone 3
  EXPECT_EQ(pihole, 8u);             // Table 5
  EXPECT_EQ(unbound, 6u);            // Table 5
  // IPv6 homes ~39% of the fleet (Table 4's v6 totals).
  double v6_fraction = static_cast<double>(ipv6_homes) / static_cast<double>(fleet.size());
  EXPECT_NEAR(v6_fraction, 0.39, 0.03);
}

TEST(Fleet, ComcastIsTheLargestOrg) {
  auto fleet = generate_fleet({});
  std::map<std::string, std::size_t> sizes;
  for (const auto& spec : fleet) ++sizes[spec.org.org];
  std::string largest;
  std::size_t best = 0;
  for (const auto& [org, count] : sizes)
    if (count > best) {
      best = count;
      largest = org;
    }
  EXPECT_NE(largest.find("Comcast"), std::string::npos);
  EXPECT_NE(sizes.size(), 0u);
  EXPECT_GT(sizes.size(), 25u);  // variety of orgs
}

TEST(Fleet, ScalingShrinksPopulationButKeepsQuotas) {
  FleetConfig config;
  config.scale = 0.05;
  auto fleet = generate_fleet(config);
  EXPECT_LT(fleet.size(), 1200u);
  std::size_t cpe_interceptors = 0;
  for (const auto& spec : fleet)
    if (spec.scenario.cpe.intercepts()) ++cpe_interceptors;
  EXPECT_EQ(cpe_interceptors, 49u);  // quotas survive downscaling
}

TEST(Fleet, ProbeIdsAreUnique) {
  auto fleet = generate_fleet({});
  std::set<std::uint32_t> ids;
  for (const auto& spec : fleet) ids.insert(spec.probe_id);
  EXPECT_EQ(ids.size(), fleet.size());
}

TEST(Fleet, SiteIndexDependsOnlyOnCountry) {
  EXPECT_EQ(site_index_for_country("US"), site_index_for_country("US"));
  // Not a strict requirement, but the catalog is large enough that the top
  // countries should not all collapse onto one site.
  std::set<std::size_t> sites;
  for (const char* cc : {"US", "DE", "FR", "GB", "NL", "RU", "JP"})
    sites.insert(site_index_for_country(cc));
  EXPECT_GT(sites.size(), 3u);
}

TEST(Measurement, ScaledFleetRunKeepsTheShape) {
  FleetConfig config;
  config.scale = 0.03;  // ~quota-only fleet, fast
  auto fleet = generate_fleet(config);
  auto run = run_fleet(fleet);
  ASSERT_EQ(run.records.size(), fleet.size());

  // All the paper's qualitative findings must hold even on the small fleet.
  EXPECT_EQ(run.count_location(core::InterceptorLocation::cpe), 52u);  // 49 + 3 known FPs
  EXPECT_GT(run.count_location(core::InterceptorLocation::isp), 100u);
  EXPECT_GT(run.count_location(core::InterceptorLocation::unknown), 20u);

  // Exactly the three deliberately planted §6 misclassifications miss; the
  // quota-dominated small fleet makes them 3 of ~290, so assert the count.
  auto matrix = report::accuracy_matrix(run);
  EXPECT_EQ(matrix.total() - matrix.correct(), 3u);

  auto census = report::pattern_census(run, netbase::IpFamily::v6);
  EXPECT_EQ(census.all_four, 0u);  // Table 4: no all-four v6 interception
}

TEST(Measurement, RunProbeIsDeterministic) {
  auto fleet = generate_fleet({});
  // Pick an intercepted probe (Comcast XB6 quota lives at the front).
  const ProbeSpec* spec = nullptr;
  for (const auto& candidate : fleet)
    if (candidate.scenario.cpe.kind == CpeStyle::Kind::xb6_buggy) {
      spec = &candidate;
      break;
    }
  ASSERT_NE(spec, nullptr);
  auto first = run_probe(*spec);
  auto second = run_probe(*spec);
  EXPECT_EQ(first.verdict.location, second.verdict.location);
  ASSERT_TRUE(first.verdict.cpe_check && second.verdict.cpe_check);
  EXPECT_EQ(first.verdict.cpe_check->cpe.display, second.verdict.cpe_check->cpe.display);
}

}  // namespace
}  // namespace dnslocate::atlas

namespace dnslocate::atlas {
namespace {

TEST(Measurement, ParallelRunMatchesSequential) {
  FleetConfig config;
  config.scale = 0.02;
  auto fleet = generate_fleet(config);

  MeasurementOptions sequential;
  auto a = run_fleet(fleet, sequential);

  MeasurementOptions parallel;
  parallel.shards = 4;
  std::size_t progress_calls = 0;
  parallel.progress = [&](std::size_t, std::size_t) { ++progress_calls; };
  auto b = run_fleet(fleet, parallel);

  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_EQ(progress_calls, fleet.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].probe_id, b.records[i].probe_id);
    EXPECT_EQ(a.records[i].verdict.location, b.records[i].verdict.location);
  }
}

}  // namespace
}  // namespace dnslocate::atlas
