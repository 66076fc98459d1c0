#include "report/results_io.h"

#include "atlas/journal.h"
#include "jsonio/json.h"

namespace dnslocate::report {

std::string probe_to_json(const atlas::ProbeRecord& record) {
  return atlas::journal_record_dump(record, /*with_elapsed=*/false);
}

std::string run_to_jsonl(const atlas::MeasurementRun& run) {
  std::string out;
  for (const auto& record : run.records) {
    out += probe_to_json(record);
    out += '\n';
  }
  return out;
}

JsonlLoadResult run_from_jsonl(std::string_view text) {
  JsonlLoadResult result;
  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t newline = text.find('\n', start);
    std::string_view line = newline == std::string_view::npos
                                ? text.substr(start)
                                : text.substr(start, newline - start);
    start = newline == std::string_view::npos ? text.size() : newline + 1;
    ++line_number;
    if (line.empty()) continue;

    jsonio::ParseError error;
    auto value = jsonio::parse(line, &error);
    auto record = value ? atlas::journal_record_from_json(*value) : std::nullopt;
    if (!record) {
      result.errors.push_back("line " + std::to_string(line_number) + ": " +
                              (value ? "not a probe record" : error.message));
      continue;
    }
    result.run.records.push_back(std::move(*record));
  }
  return result;
}

}  // namespace dnslocate::report
