#include "atlas/sharding.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

namespace dnslocate::atlas {
namespace {

/// splitmix64 finalizer — the same mixer simnet::Rng and the fleet planner
/// use for seed derivation. A plain modulo over the raw id would put probe
/// ids (which are assigned sequentially) into round-robin shards; hashing
/// first keeps the assignment stable under fleet edits instead of positional.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

unsigned shard_of(std::uint32_t probe_id, unsigned shards) {
  if (shards <= 1) return 0;
  return static_cast<unsigned>(mix(probe_id) % shards);
}

std::vector<std::vector<std::size_t>> partition_fleet(const std::vector<ProbeSpec>& fleet,
                                                      unsigned shards) {
  if (shards == 0) shards = 1;
  std::vector<std::vector<std::size_t>> parts(shards);
  for (std::size_t i = 0; i < fleet.size(); ++i)
    parts[shard_of(fleet[i].probe_id, shards)].push_back(i);
  return parts;
}

std::string shard_segment_path(const std::string& base, unsigned shard, unsigned shards) {
  return base + ".shard-" + std::to_string(shard) + "-of-" + std::to_string(shards);
}

std::vector<std::string> find_shard_segments(const std::string& base) {
  namespace fs = std::filesystem;
  std::vector<std::string> segments;
  fs::path base_path(base);
  fs::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  std::string prefix = base_path.filename().string() + ".shard-";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) segments.push_back(entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace dnslocate::atlas
