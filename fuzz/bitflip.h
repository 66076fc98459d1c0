// Deterministic bit-flip neighbourhood of a corpus input: round r flips 1-4
// bits chosen by splitmix64, seeded only by the input length and r, so the
// same seed file yields the same mutants on every machine. The standalone
// fuzz driver replays it (-mutate=N), and test_dnswire_view records what the
// decoder makes of it in tests/golden/dnswire_outcomes.txt.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dnslocate::fuzzing {

inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Mutant number `round` of a non-empty `bytes`.
inline std::vector<std::uint8_t> bitflip_mutant(std::span<const std::uint8_t> bytes,
                                                std::uint64_t round) {
  std::vector<std::uint8_t> mutated(bytes.begin(), bytes.end());
  std::uint64_t state = 0x6a09e667f3bcc908ull ^ (mutated.size() * 0x10001u) ^ round;
  std::uint64_t flips = 1 + (splitmix64(state) & 3);
  for (std::uint64_t f = 0; f < flips; ++f) {
    std::uint64_t r = splitmix64(state);
    mutated[r % mutated.size()] ^= static_cast<std::uint8_t>(1u << ((r >> 32) & 7));
  }
  return mutated;
}

}  // namespace dnslocate::fuzzing
