#include "dnslint/lint.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "dnslint/scan.h"
#include "dnslint/scopes.h"
#include "jsonio/json.h"

namespace dnslocate::lint {
namespace {

struct Suppression {
  std::string rule;
  bool used = false;
};

struct Directives {
  // line (1-based) -> suppressions covering that line
  std::vector<std::pair<std::size_t, Suppression>> allows;
  std::vector<Finding> errors;  // bad-suppression findings
};

constexpr std::array<std::string_view, 10> kKnownRules = {
    kRuleDeterminism,    kRuleWireBounds, kRuleRaiiSockets,
    kRuleHeaderHygiene,  kRuleHttpBlocking, kRuleAcceptanceSeam,
    kRuleNoBlockingUnderLock, kRuleLockOrder, kRuleAnnotationCoverage,
    kRuleThreadsAlias};

/// How far a suppression placed above a statement reaches: the statement
/// runs from `start` (0-based index into `lines`) to the line where it
/// syntactically ends — last non-blank character `;`, `{` or `}` with all
/// parentheses/brackets opened since `start` closed again. Capped so a
/// directive can never silently blanket a whole file.
constexpr std::size_t kMaxStatementLines = 12;

std::size_t statement_end(const std::vector<std::string_view>& lines, std::size_t start) {
  long depth = 0;
  std::size_t limit = std::min(lines.size(), start + kMaxStatementLines);
  for (std::size_t idx = start; idx < limit; ++idx) {
    std::string_view line = lines[idx];
    char trailing = '\0';
    for (char c : line) {
      if (c == '(' || c == '[') ++depth;
      else if (c == ')' || c == ']') --depth;
      if (c != ' ' && c != '\t') trailing = c;
    }
    if (trailing == '\0') return idx;  // blank line: the statement is over
    if (depth <= 0 && (trailing == ';' || trailing == '{' || trailing == '}'))
      return idx;
  }
  return limit == 0 ? 0 : limit - 1;
}

Directives parse_directives(std::string_view path, const Scrubbed& s,
                            const std::vector<std::string_view>& lines) {
  static const std::regex kDirective(
      R"(dnslint:\s*allow\(([A-Za-z0-9_-]+)\)(\s*:\s*(\S[^]*?))?\s*$)");
  Directives out;
  for (const CommentSpan& c : s.comments) {
    std::size_t mention = c.text.find("dnslint:");
    if (mention == std::string::npos) continue;
    std::smatch m;
    std::string text = c.text;
    if (!std::regex_search(text, m, kDirective)) {
      out.errors.push_back(Finding{std::string(path), c.line, std::string(kRuleBadSuppression),
                                   "malformed dnslint directive (expected "
                                   "`dnslint: allow(<rule>): <reason>`)"});
      continue;
    }
    std::string rule = m[1].str();
    bool known = std::find(kKnownRules.begin(), kKnownRules.end(), rule) != kKnownRules.end();
    if (!known) {
      out.errors.push_back(Finding{std::string(path), c.line, std::string(kRuleBadSuppression),
                                   "allow() names unknown rule '" + rule + "'"});
      continue;
    }
    if (!m[2].matched || m[3].str().empty()) {
      out.errors.push_back(Finding{std::string(path), c.line, std::string(kRuleBadSuppression),
                                   "allow(" + rule + ") must carry a reason: "
                                   "`// dnslint: allow(" + rule + "): <why>`"});
      continue;
    }
    // A directive covers its own line; a comment that owns its line also
    // covers the whole statement starting on the line below — a multi-line
    // call or declaration is suppressed end to end, not just its first
    // physical line.
    out.allows.emplace_back(c.line, Suppression{rule});
    if (c.owns_line && c.line < lines.size()) {
      std::size_t end = statement_end(lines, c.line);  // 0-based == c.line 1-based + 1
      for (std::size_t idx = c.line; idx <= end; ++idx)
        out.allows.emplace_back(idx + 1, Suppression{rule});
    }
  }
  return out;
}

struct PathScope {
  bool in_src = false;
  bool in_perfbench = false;  // the fixed benchmark: R10's one exemption
  bool in_dnswire = false;
  bool in_sockets = false;
  bool in_service = false;
  bool is_header = false;
  bool determinism_seam = false;  // the allowlisted clock/entropy seam
  bool service_listener_seam = false;  // the allowlisted accept-loop seam
  bool exchange_seam = false;  // src/core/exchange.* — the one acceptance impl
  bool retry_seam = false;     // src/core/retry.* — defines rerandomize_query, backoff_before
  bool annotated_subsystem = false;  // R9: capability-annotated subsystems
};

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

PathScope classify_path(std::string_view path) {
  PathScope scope;
  scope.in_src = starts_with(path, "src/");
  scope.in_perfbench = starts_with(path, "perfbench/");
  scope.in_dnswire = starts_with(path, "src/dnswire/");
  scope.in_sockets = starts_with(path, "src/sockets/");
  scope.is_header = path.size() >= 2 && path.substr(path.size() - 2) == ".h";
  // The seam that is allowed to touch ambient entropy and the wall clock:
  // simnet's seeded RNG + simulated time, and obs's ScopedClock.
  scope.determinism_seam = path == "src/simnet/rng.h" || path == "src/simnet/rng.cc" ||
                           path == "src/simnet/time.h" || path == "src/obs/clock.h" ||
                           path == "src/obs/clock.cc";
  scope.in_service = starts_with(path, "src/service/");
  // The measurement service's accept loop is the one place outside
  // src/sockets/ that owns raw socket fds: HttpServer wraps listen/accept/
  // recv/send behind a single finite-tick poll(), RAII-owns every fd in its
  // Connection struct, and nothing else in src/service/ ever sees an fd.
  // Only this exact file gets the R3 ownership exemption — handlers and the
  // service kernel stay under the full rule (and under R5).
  scope.service_listener_seam = path == "src/service/http_server.cc";
  // The exchange kernel is the only place that may implement acceptance,
  // duplicate fingerprinting, arbitration and the attempt timeline (R6);
  // retry.* defines the backoff schedule and re-randomization primitive the
  // kernel drives.
  scope.exchange_seam = starts_with(path, "src/core/exchange.");
  scope.retry_seam = starts_with(path, "src/core/retry.");
  // Subsystems whose mutexes are netbase::Mutex capabilities (engine 1,
  // thread_annotations.h); R9 keeps them that way.
  scope.annotated_subsystem =
      scope.in_service || scope.in_sockets || starts_with(path, "src/obs/") ||
      starts_with(path, "src/atlas/") || starts_with(path, "src/netbase/");
  return scope;
}

using Sink = std::vector<Finding>;

void add(Sink& sink, std::string_view path, std::size_t line, std::string_view rule,
         std::string message) {
  sink.push_back(Finding{std::string(path), line, std::string(rule), std::move(message)});
}

// ---------------------------------------------------------------- R1 -------

void check_determinism(std::string_view path, const std::vector<std::string_view>& lines,
                       Sink& sink) {
  static const std::regex kUnseededEngine(
      R"(\b(mt19937(_64)?|default_random_engine|minstd_rand0?|ranlux24|ranlux48)\s+[A-Za-z_]\w*\s*(;|\{\s*\}|\(\s*\)))");
  static const std::regex kNullTime(R"(\btime\s*\(\s*(nullptr|NULL|0)?\s*\))");
  constexpr std::array<std::string_view, 3> kBannedIdents = {"random_device", "system_clock",
                                                             "gettimeofday"};
  constexpr std::array<std::string_view, 4> kBannedCalls = {"rand", "srand", "rand_r",
                                                            "drand48"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    std::size_t lineno = i + 1;
    for (std::string_view ident : kBannedIdents) {
      if (find_ident(line, ident) != std::string_view::npos)
        add(sink, path, lineno, kRuleDeterminism,
            std::string(ident) + " is nondeterministic; route through the seeded "
            "simnet entropy / obs::ScopedClock seam");
    }
    for (std::string_view ident : kBannedCalls) {
      std::size_t pos = find_ident(line, ident);
      if (pos != std::string_view::npos && is_call(line, pos, ident.size()) &&
          !is_member_access(line, pos))
        add(sink, path, lineno, kRuleDeterminism,
            std::string(ident) + "() draws ambient entropy; use simnet::Rng "
            "(seeded) instead");
    }
    // std::time(nullptr) and friends read the wall clock.
    std::size_t pos = find_ident(line, "time");
    if (pos != std::string_view::npos && !is_member_access(line, pos)) {
      std::string_view qual = qualifier(line, pos);
      std::string tail(line.substr(pos));
      std::smatch m;
      if (std::regex_search(tail, m, kNullTime) && m.position(0) == 0 &&
          (qual == "std" || (qual.empty() && m[1].matched)))
        add(sink, path, lineno, kRuleDeterminism,
            "time() reads the wall clock; use the sim clock / obs::ScopedClock");
    }
    std::string text(line);
    std::smatch m;
    if (std::regex_search(text, m, kUnseededEngine))
      add(sink, path, lineno, kRuleDeterminism,
          m[1].str() + " constructed without a seed is implementation-seeded; "
          "pass an explicit seed derived from the probe/scenario seed");
  }
}

// ---------------------------------------------------------------- R2 -------

void check_wire_bounds(std::string_view path, const std::vector<std::string_view>& lines,
                       Sink& sink) {
  static const std::regex kDataArith(R"(\.\s*data\s*\(\s*\)\s*[+\[])");
  constexpr std::array<std::string_view, 5> kRawCopies = {"memcpy", "memmove", "strcpy",
                                                          "strncpy", "alloca"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    std::size_t lineno = i + 1;
    for (std::string_view ident : kRawCopies) {
      std::size_t pos = find_ident(line, ident);
      if (pos != std::string_view::npos && is_call(line, pos, ident.size()))
        add(sink, path, lineno, kRuleWireBounds,
            std::string(ident) + "() bypasses the bounds-checked cursor helpers; "
            "use Cursor/Writer primitives (or std::span copies) instead");
    }
    if (find_ident(line, "reinterpret_cast") != std::string_view::npos)
      add(sink, path, lineno, kRuleWireBounds,
          "reinterpret_cast over wire bytes defeats bounds/type checking; "
          "construct from a bounds-checked std::span instead");
    std::string text(line);
    if (std::regex_search(text, kDataArith))
      add(sink, path, lineno, kRuleWireBounds,
          "raw pointer arithmetic on .data(); use subspan()/cursor helpers "
          "so every access stays bounds-checked");
  }
}

// ---------------------------------------------------------------- R3 -------

void check_raii_sockets(std::string_view path, const std::vector<std::string_view>& lines,
                        bool owns_fds, Sink& sink) {
  static const std::regex kInfinitePoll(R"(\bpoll\s*\([^;()]*,\s*-1\s*\))");
  constexpr std::array<std::string_view, 9> kOwnedCalls = {
      "socket", "close", "recvfrom", "sendto", "recv", "accept",
      "setsockopt", "poll", "select"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    std::size_t lineno = i + 1;
    if (!owns_fds) {
      for (std::string_view ident : kOwnedCalls) {
        std::size_t pos = find_ident(line, ident);
        if (pos != std::string_view::npos && is_call(line, pos, ident.size()) &&
            !is_member_access(line, pos)) {
          std::string_view qual = qualifier(line, pos);
          if (qual == "std") continue;  // std::accept etc. do not exist; be safe
          add(sink, path, lineno, kRuleRaiiSockets,
              "naked " + std::string(ident) + "() outside the fd owners; socket "
              "lifetimes belong to src/sockets/ (or the allowlisted accept-loop "
              "seam src/service/http_server.cc)");
        }
      }
    }
    // Everywhere (owners included): poll must carry a finite deadline.
    std::string text(line);
    if (std::regex_search(text, kInfinitePoll))
      add(sink, path, lineno, kRuleRaiiSockets,
          "poll() with an infinite (-1) timeout can hang a probe forever; "
          "every wait needs a deadline");
  }
}

// ---------------------------------------------------------------- R5 -------

/// src/service/ outside the accept-loop seam runs on the HTTP server's
/// event thread: request handlers and verdict-stream pullers are invoked
/// from the poll loop, so one blocking read stalls every connection. Work
/// that waits belongs on the MeasurementService worker pool; handlers only
/// snapshot state that is already in memory (or journaled on disk).
void check_http_blocking(std::string_view path, const std::vector<std::string_view>& lines,
                         Sink& sink) {
  constexpr std::array<std::string_view, 12> kBlockingReads = {
      "recv", "recvfrom", "recvmsg", "read",   "pread", "readv",
      "accept", "select", "fgets",   "getline", "scanf", "fscanf"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    std::size_t lineno = i + 1;
    for (std::string_view ident : kBlockingReads) {
      std::size_t pos = find_ident(line, ident);
      if (pos != std::string_view::npos && is_call(line, pos, ident.size()) &&
          !is_member_access(line, pos))
        add(sink, path, lineno, kRuleHttpBlocking,
            std::string(ident) + "() can block the HTTP event thread; handlers "
            "and stream pullers must stay non-blocking — queue the work on the "
            "service's worker pool instead");
    }
    if (find_ident(line, "cin") != std::string_view::npos)
      add(sink, path, lineno, kRuleHttpBlocking,
          "std::cin reads block the HTTP event thread; the daemon's control "
          "plane is the HTTP API, not stdin");
  }
}

// ---------------------------------------------------------------- R6 -------

/// Exactly one implementation of answer acceptance, duplicate-window
/// fingerprinting, arbitration and the attempt timeline exists: the exchange
/// kernel (src/core/exchange.*). A transport that matches transaction IDs,
/// hashes payloads for dedup, compares answers, or schedules its own
/// backoffs and re-rolls will drift from the RFC 5452 semantics and the
/// timeout accounting the whole evidence model rests on — the kernel and
/// core::Exchange exist precisely because such copies had grown apart.
void check_acceptance_seam(std::string_view path, const std::vector<std::string_view>& lines,
                           const PathScope& scope, Sink& sink) {
  struct Banned {
    std::string_view ident;
    bool allowed;
    std::string_view message;
  };
  const std::array<Banned, 6> banned = {{
      {"is_acceptable_response", scope.in_dnswire,
       "RFC 5452 acceptance belongs to the exchange kernel; route answers "
       "through core::run_exchange / ExchangeLedger (core/exchange.h)"},
      {"responses_conflict", false,
       "answer arbitration belongs to the exchange kernel; deliver the "
       "response to an ExchangeLedger and act on its Disposition"},
      {"rerandomize_query", scope.retry_seam,
       "per-attempt re-randomization belongs to the exchange kernel; drive "
       "the query with a core::Exchange (core/exchange.h)"},
      {"prepare_retry_attempt", scope.retry_seam,
       "per-attempt re-randomization belongs to the exchange kernel; drive "
       "the query with a core::Exchange (core/exchange.h)"},
      {"backoff_before", scope.retry_seam,
       "backoff arithmetic belongs to the attempt timeline; drive the query "
       "with a core::Exchange and wait out its backoff()/wake_at()"},
      {"bytes_hash", false,
       "duplicate-window fingerprinting belongs to the exchange kernel; use "
       "core::payload_fingerprint via ExchangeLedger::deliver"},
  }};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    std::size_t lineno = i + 1;
    for (const Banned& b : banned) {
      if (b.allowed) continue;
      if (find_ident(line, b.ident) != std::string_view::npos)
        add(sink, path, lineno, kRuleAcceptanceSeam,
            std::string(b.ident) + " outside src/core/exchange.*: " +
                std::string(b.message));
    }
  }
}

/// Query execution has one seam too: AsyncQueryTransport::run(QueryBatch&),
/// with QueryTransport carrying capabilities and telemetry only. A virtual
/// on either interface that takes or returns one query (a Message or a
/// QueryResult) would regrow the per-query execution face the batch seam
/// replaced. One-at-a-time engines derive from SequentialTransport, whose
/// protected query() stays behind run().
void check_transport_interfaces(std::string_view path,
                                const std::vector<std::string_view>& lines, Sink& sink) {
  static const std::regex kInterfaceHead(
      R"(\b(class|struct)\s+(QueryTransport|AsyncQueryTransport)\b[^;]*$)");
  for (std::size_t head = 0; head < lines.size(); ++head) {
    std::string text(lines[head]);
    std::smatch m;
    if (!std::regex_search(text, m, kInterfaceHead)) continue;
    const std::string name = m[2].str();
    long depth = 0;
    bool opened = false;
    for (std::size_t i = head; i < lines.size(); ++i) {
      std::string_view line = lines[i];
      if (opened && find_ident(line, "virtual") != std::string_view::npos) {
        std::string statement;
        const std::size_t end = statement_end(lines, i);
        for (std::size_t j = i; j <= end; ++j) statement.append(lines[j]).push_back('\n');
        if (find_ident(statement, "QueryResult") != std::string_view::npos ||
            find_ident(statement, "Message") != std::string_view::npos)
          add(sink, path, i + 1, kRuleAcceptanceSeam,
              "single-query virtual on " + name +
                  ": queries execute through AsyncQueryTransport::run(QueryBatch&); "
                  "a one-at-a-time engine derives from SequentialTransport");
      }
      for (char c : line) {
        if (c == '{') {
          ++depth;
          opened = true;
        } else if (c == '}') {
          --depth;
        }
      }
      if (opened && depth <= 0) break;
    }
  }
}

// --------------------------------------------------------------- R10 -------

/// MeasurementOptions::shards is the fleet's one parallelism knob. `threads`
/// survives only as the alias perfbench/ (the fixed benchmark) compiles
/// against; an assignment anywhere else regrows the second knob and blocks
/// deleting the alias.
void check_threads_alias(std::string_view path, const std::vector<std::string_view>& lines,
                         Sink& sink) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    for (std::size_t pos = find_ident(line, "threads"); pos != std::string_view::npos;
         pos = find_ident(line, "threads", pos + 1)) {
      if (!is_member_access(line, pos)) continue;
      std::size_t next = skip_ws(line, pos + 7);
      if (next < line.size() && line[next] == '=' &&
          (next + 1 >= line.size() || line[next + 1] != '='))
        add(sink, path, i + 1, kRuleThreadsAlias,
            "MeasurementOptions::threads is the alias perfbench/ compiles against; "
            "set `shards` (the one parallelism knob) instead");
    }
  }
}

// ---------------------------------------------------------------- R4 -------

void check_header_hygiene(std::string_view path, const std::vector<std::string_view>& lines,
                          Sink& sink) {
  static const std::regex kGuardDefine(R"(^\s*#\s*ifndef\s+\w+_H(_|PP)?_?\s*$)");
  std::size_t pragma_count = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    std::size_t lineno = i + 1;
    if (find_ident(line, "using") != std::string_view::npos) {
      std::size_t upos = find_ident(line, "using");
      std::size_t npos = find_ident(line, "namespace", upos);
      if (npos != std::string_view::npos && skip_ws(line, upos + 5) == npos)
        add(sink, path, lineno, kRuleHeaderHygiene,
            "`using namespace` in a header leaks into every includer; qualify "
            "names or move the directive into a .cc file");
    }
    std::string text(line);
    std::smatch m;
    static const std::regex kPragmaOnce(R"(^\s*#\s*pragma\s+once\b)");
    if (std::regex_search(text, m, kPragmaOnce)) {
      ++pragma_count;
      if (pragma_count == 2)
        add(sink, path, lineno, kRuleHeaderHygiene, "duplicate #pragma once");
    }
    if (std::regex_search(text, m, kGuardDefine))
      add(sink, path, lineno, kRuleHeaderHygiene,
          "legacy include guard; this tree standardizes on #pragma once");
  }
  if (pragma_count == 0)
    add(sink, path, 1, kRuleHeaderHygiene, "header is missing #pragma once");
}

}  // namespace

std::string Finding::to_string() const {
  return path + ":" + std::to_string(line) + ": error: [" + rule + "] " + message;
}

std::vector<Finding> lint_file(std::string_view path, std::string_view content) {
  return lint_file(path, content, LockOrder{});
}

std::vector<Finding> lint_file(std::string_view path, std::string_view content,
                               const LockOrder& lock_order) {
  PathScope scope = classify_path(path);
  Scrubbed s = scrub(content);
  std::vector<std::string_view> lines = split_lines(s.code);
  Directives directives = parse_directives(path, s, lines);

  Sink raw;
  if (scope.in_src && !scope.determinism_seam) check_determinism(path, lines, raw);
  if (scope.in_dnswire) check_wire_bounds(path, lines, raw);
  if (scope.in_src)
    check_raii_sockets(path, lines, scope.in_sockets || scope.service_listener_seam, raw);
  if (scope.in_service && !scope.service_listener_seam) check_http_blocking(path, lines, raw);
  if (scope.in_src && !scope.exchange_seam) check_acceptance_seam(path, lines, scope, raw);
  if (scope.in_src) check_transport_interfaces(path, lines, raw);
  if (!scope.in_perfbench) check_threads_alias(path, lines, raw);
  if (scope.in_src && scope.is_header) check_header_hygiene(path, lines, raw);
  if (scope.in_src) {
    std::vector<Token> tokens = tokenize(s.code);
    check_lock_scopes(path, tokens, lock_order, raw);
    if (scope.annotated_subsystem) check_annotation_coverage(path, tokens, raw);
  }

  Sink out = std::move(directives.errors);
  for (Finding& f : raw) {
    bool suppressed = false;
    for (auto& [line, allow] : directives.allows) {
      if (line == f.line && allow.rule == f.rule) {
        allow.used = true;
        suppressed = true;
        break;
      }
    }
    if (!suppressed) out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule, a.message) < std::tie(b.line, b.rule, b.message);
  });
  return out;
}

LockOrder load_lock_order(const std::string& root) {
  std::ifstream in(root + "/tools/dnslint/lock_order.txt", std::ios::binary);
  if (!in) return LockOrder{};
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_lock_order(buf.str());
}

std::vector<Finding> lint_paths(const std::string& root, const std::vector<std::string>& files) {
  namespace fs = std::filesystem;
  std::vector<Finding> out;
  fs::path root_abs = fs::absolute(fs::path(root)).lexically_normal();
  LockOrder lock_order = load_lock_order(root_abs.generic_string());
  for (const std::string& file : files) {
    fs::path abs = fs::absolute(fs::path(file)).lexically_normal();
    std::string rel = abs.lexically_relative(root_abs).generic_string();
    if (rel.empty() || starts_with(rel, "..")) rel = abs.generic_string();
    std::ifstream in(abs, std::ios::binary);
    if (!in) {
      out.push_back(Finding{rel, 0, std::string(kRuleBadSuppression), "unreadable file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string content = buf.str();
    std::vector<Finding> findings = lint_file(rel, content, lock_order);
    out.insert(out.end(), std::make_move_iterator(findings.begin()),
               std::make_move_iterator(findings.end()));
  }
  return out;
}

std::vector<std::string> discover_sources(const std::string& root,
                                          const std::string& compile_commands_path) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  fs::path root_abs = fs::absolute(fs::path(root)).lexically_normal();

  if (!compile_commands_path.empty()) {
    std::ifstream in(compile_commands_path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      if (auto db = jsonio::parse(buf.str()); db && db->is_array()) {
        for (const jsonio::Value& entry : db->as_array()) {
          if (!entry.is_object()) continue;
          const jsonio::Value& file = entry["file"];
          if (!file.is_string()) continue;
          fs::path p = fs::path(file.as_string());
          if (p.is_relative()) p = fs::path(entry["directory"].as_string()) / p;
          p = p.lexically_normal();
          std::string rel = p.lexically_relative(root_abs).generic_string();
          if (starts_with(rel, "src/")) files.push_back(p.generic_string());
        }
      }
    }
  }

  // src/ carries every rule; the other trees are walked for R10 only (their
  // paths fail the src/ scoping of R1-R9). The lint fixture trees are
  // linted as roots of their own, never as part of the repo.
  for (const char* tree : {"src", "examples", "bench", "tests", "fuzz"}) {
    const fs::path dir = root_abs / tree;
    if (!fs::exists(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir); it != fs::recursive_directory_iterator();
         ++it) {
      if (it->is_directory() && it->path().filename() == "lint_fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp")
        files.push_back(it->path().lexically_normal().generic_string());
    }
  }

  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace dnslocate::lint
