// Sharded fleet execution: partitioning probes across worker shards.
//
// Shard assignment is a pure function of the probe id (a stable hash, not the
// fleet index), so adding or removing probes from a plan moves only the
// affected probes between shards. Nothing observable may depend on which
// shard a probe lands on: each probe owns its simulator, seeded from its own
// ScenarioConfig, so per-probe verdicts are byte-identical at any shard count
// (proved in tests/test_fleet_sharding.cc). Sharding is the fleet's only
// executor: one shard runs inline on the caller's thread, N shards run one
// thread each, and every shard appends to the run's one journal — so an
// interrupted run resumes at any shard count (atlas/measurement.h,
// MeasurementOptions::shards).
#pragma once

#include <cstdint>
#include <vector>

#include "atlas/fleet.h"

namespace dnslocate::atlas {

/// Stable shard assignment for a probe: splitmix64 of the probe id, reduced
/// modulo the shard count. Independent of fleet order and fleet size.
[[nodiscard]] unsigned shard_of(std::uint32_t probe_id, unsigned shards);

/// Partition fleet indices into `shards` buckets by shard_of(probe_id).
/// Within each bucket, indices keep fleet order.
[[nodiscard]] std::vector<std::vector<std::size_t>> partition_fleet(
    const std::vector<ProbeSpec>& fleet, unsigned shards);

}  // namespace dnslocate::atlas
