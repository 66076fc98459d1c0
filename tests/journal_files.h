// Test helper for journaled runs: the files that sit beside a journal.
// A run keeps every checkpoint in its one journal file, at any shard count,
// so the suites assert that nothing named after the journal appears next to
// it — during a run, after a clean or early stop, and after a crash.
#pragma once

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace dnslocate::testutil {

/// Every file beside `journal` whose name starts with "<journal name>.shard-",
/// the shape older builds gave their per-shard journal files.
inline std::vector<std::string> shard_files_beside(const std::string& journal) {
  namespace fs = std::filesystem;
  const fs::path path(journal);
  const fs::path dir = path.has_parent_path() ? path.parent_path() : fs::path(".");
  const std::string prefix = path.filename().string() + ".shard-";
  std::vector<std::string> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec))
    if (entry.path().filename().string().starts_with(prefix))
      found.push_back(entry.path().string());
  return found;
}

}  // namespace dnslocate::testutil
