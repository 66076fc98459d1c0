// libFuzzer harness for journal salvage/resume — the crash-tolerance layer
// must never fabricate evidence, whatever bytes a crash left on disk.
// Properties enforced:
//
//  1. parse_journal never crashes or overreads on arbitrary journal text;
//     damaged lines are dropped with warnings, never invented.
//  2. Every record it salvages round-trips: dump -> parse -> from_json ->
//     dump is byte-identical.
//  3. The dump is canonical JSON: jsonio::parse(dump).dump() == dump. The
//     checksum covers the bytes as written, so the emitter alone defines
//     them, and they must be what jsonio itself would write.
//  4. The dataset export is the same codec: a record's export line is its
//     dump minus `"elapsed_us":N,`, and run_from_jsonl of that line
//     re-exports the same bytes.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "atlas/journal.h"
#include "jsonio/json.h"
#include "report/results_io.h"

namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "%s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  using namespace dnslocate;
  std::string_view text(reinterpret_cast<const char*>(data), size);
  atlas::JournalLoadResult result = atlas::parse_journal(text);
  if (!result.ok()) return 0;

  for (const atlas::ProbeRecord& record : result.records) {
    std::string dump = atlas::journal_record_dump(record);
    auto parsed = jsonio::parse(dump);
    if (!parsed) fail("salvaged record dump is not valid JSON");
    if (parsed->dump() != dump) fail("record dump is not canonical jsonio output");
    auto restored = atlas::journal_record_from_json(*parsed);
    if (!restored) fail("salvaged record does not re-parse");
    if (atlas::journal_record_dump(*restored) != dump) fail("record round-trip is not byte-stable");

    std::string line = report::probe_to_json(record);
    std::string without_elapsed = dump;
    const std::string elapsed = "\"elapsed_us\":" + std::to_string(record.elapsed.count()) + ",";
    std::size_t at = without_elapsed.find(elapsed);
    if (at == std::string::npos) fail("record dump has no elapsed_us member");
    without_elapsed.erase(at, elapsed.size());
    if (line != without_elapsed) fail("export line is not the dump minus elapsed_us");
    report::JsonlLoadResult reloaded = report::run_from_jsonl(line);
    if (!reloaded.ok() || report::run_to_jsonl(reloaded.run) != line + "\n")
      fail("export line does not reload to the same bytes");
  }
  return 0;
}
