// Corpus-replay driver used when the toolchain has no libFuzzer (GCC).
// Mirrors libFuzzer's file-replay CLI shape: every non-flag argument is a
// corpus file or directory, flags (-runs=0, -max_total_time=30, ...) are
// ignored, and each input is fed once to LLVMFuzzerTestOneInput. With
// -mutate=N (also understood, and harmlessly warned about, by libFuzzer)
// each input is additionally replayed N times with deterministic splitmix64
// bit flips — a seedable smoke approximation of a short fuzzing run.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bitflip.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);

namespace {

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::filesystem::path> inputs;
  long mutations = 0;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-') {
      if (std::strncmp(argv[i], "-mutate=", 8) == 0) mutations = std::atol(argv[i] + 8);
      continue;  // ignore libFuzzer-style flags
    }
    std::filesystem::path p(argv[i]);
    if (std::filesystem::is_directory(p)) {
      for (const auto& entry : std::filesystem::directory_iterator(p))
        if (entry.is_regular_file()) inputs.push_back(entry.path());
    } else {
      inputs.push_back(p);
    }
  }
  std::sort(inputs.begin(), inputs.end());  // deterministic replay order

  std::size_t executed = 0;
  for (const auto& path : inputs) {
    std::vector<std::uint8_t> bytes = read_file(path);
    LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
    ++executed;
    // Deterministic neighbourhood (bitflip.h), reproducible everywhere.
    for (long round = 0; round < mutations; ++round) {
      if (bytes.empty()) break;
      std::vector<std::uint8_t> mutated =
          dnslocate::fuzzing::bitflip_mutant(bytes, static_cast<std::uint64_t>(round));
      LLVMFuzzerTestOneInput(mutated.data(), mutated.size());
      ++executed;
    }
  }
  std::printf("standalone fuzz driver: executed %zu input(s) from %zu file(s)\n", executed,
              inputs.size());
  return 0;
}
