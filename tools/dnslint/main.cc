// dnslint CLI. Exit codes: 0 clean, 1 findings, 2 usage/IO error.
//
//   dnslint --root <repo> [--compile-commands build/compile_commands.json]
//           [--format=plain|github] [--json <path>] [file...]
//
// With no positional files, lints every source discovered under <root>/src
// (compilation database entries plus a directory walk for headers), plus
// the examples/, bench/, tests/ and fuzz/ trees for the one rule that
// reaches beyond src/ (threads-alias).
//
// --format=github emits GitHub Actions workflow annotations
// (`::error file=...,line=...::`) so findings surface inline on the PR diff;
// --json dumps the findings to a machine-readable file for tooling.
#include <cstdio>
#include <string>
#include <vector>

#include "dnslint/lint.h"
#include "jsonio/json.h"

namespace {

/// GitHub Actions workflow-annotation form of one finding. Property values
/// (file, title) must not contain the `::` terminator or commas are fine;
/// the message has its newlines escaped per the workflow-command spec.
std::string to_github(const dnslocate::lint::Finding& f) {
  std::string message = f.message;
  std::string escaped;
  escaped.reserve(message.size());
  for (char c : message) {
    if (c == '\n')
      escaped += "%0A";
    else if (c == '\r')
      escaped += "%0D";
    else if (c == '%')
      escaped += "%25";
    else
      escaped.push_back(c);
  }
  return "::error file=" + f.path + ",line=" + std::to_string(f.line) +
         ",title=dnslint(" + f.rule + ")::" + escaped;
}

bool write_json(const std::string& path, std::size_t files_scanned,
                const std::vector<dnslocate::lint::Finding>& findings) {
  dnslocate::jsonio::Object report;
  report["files_scanned"] = static_cast<std::uint64_t>(files_scanned);
  std::vector<dnslocate::jsonio::Value> items;
  items.reserve(findings.size());
  for (const auto& f : findings) {
    dnslocate::jsonio::Object item;
    item["path"] = f.path;
    item["line"] = static_cast<std::uint64_t>(f.line);
    item["rule"] = f.rule;
    item["message"] = f.message;
    items.emplace_back(std::move(item));
  }
  report["findings"] = std::move(items);
  std::string text = dnslocate::jsonio::Value(std::move(report)).dump() + "\n";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string compile_commands;
  std::string format = "plain";
  std::string json_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dnslint: %s requires a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--root") {
      const char* v = next();
      if (!v) return 2;
      root = v;
    } else if (arg == "--compile-commands") {
      const char* v = next();
      if (!v) return 2;
      compile_commands = v;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "plain" && format != "github") {
        std::fprintf(stderr, "dnslint: unknown format '%s' (plain|github)\n",
                     format.c_str());
        return 2;
      }
    } else if (arg == "--format") {
      const char* v = next();
      if (!v) return 2;
      format = v;
      if (format != "plain" && format != "github") {
        std::fprintf(stderr, "dnslint: unknown format '%s' (plain|github)\n",
                     format.c_str());
        return 2;
      }
    } else if (arg == "--json") {
      const char* v = next();
      if (!v) return 2;
      json_path = v;
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: dnslint --root <repo> [--compile-commands <json>] "
                   "[--format=plain|github] [--json <path>] [file...]\n");
      return 2;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "dnslint: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(std::move(arg));
    }
  }

  if (files.empty()) {
    files = dnslocate::lint::discover_sources(root, compile_commands);
    if (files.empty()) {
      std::fprintf(stderr, "dnslint: no sources found under %s/src\n", root.c_str());
      return 2;
    }
  }

  std::vector<dnslocate::lint::Finding> findings = dnslocate::lint::lint_paths(root, files);
  for (const auto& f : findings) {
    if (format == "github")
      std::printf("%s\n", to_github(f).c_str());
    else
      std::printf("%s\n", f.to_string().c_str());
  }
  std::printf("dnslint: %zu finding(s) across %zu file(s) scanned\n", findings.size(),
              files.size());
  if (!json_path.empty() && !write_json(json_path, files.size(), findings)) {
    std::fprintf(stderr, "dnslint: cannot write %s\n", json_path.c_str());
    return 2;
  }
  return findings.empty() ? 0 : 1;
}
