// Sharded fleet execution: partitioning probes across worker shards and the
// journal-segment naming that lets an interrupted sharded run resume — even
// under a different shard count.
//
// Shard assignment is a pure function of the probe id (a stable hash, not the
// fleet index), so adding or removing probes from a plan moves only the
// affected probes between shards. Nothing observable may depend on which
// shard a probe lands on: each probe owns its simulator, seeded from its own
// ScenarioConfig, so per-probe verdicts are byte-identical at any shard count
// (proved in tests/test_fleet_sharding.cc). Sharding is the fleet's only
// executor: one shard runs inline on the caller's thread, N shards run one
// thread each (atlas/measurement.h, MeasurementOptions::shards).
#pragma once

#include <cstdint>
#include <string>
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

/// Journal segment path for one shard of a multi-shard run:
/// "<base>.shard-<k>-of-<n>". Segments carry the same header (fingerprint,
/// fleet size) as the base journal. Each shard consolidates its segment
/// into the base journal when it ends and the run deletes them before it
/// returns, so only a crashed run leaves them on disk.
[[nodiscard]] std::string shard_segment_path(const std::string& base, unsigned shard,
                                             unsigned shards);

/// Every shard segment file next to `base`, sorted by path. Matches any
/// shard count — a resumed run absorbs segments left by a run that used a
/// different number of shards.
[[nodiscard]] std::vector<std::string> find_shard_segments(const std::string& base);

}  // namespace dnslocate::atlas
