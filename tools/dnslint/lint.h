// dnslint — project-invariant static analysis for the dnslocate tree.
//
// The compiler cannot see the two properties the whole reproduction rests
// on: measurements are deterministic (seeded IDs, sim-clock time) and wire
// parsing never reads out of bounds. dnslint enforces them as machine
// checks over a token/line-level view of the source:
//
//   R1 determinism     — no ambient entropy or wall-clock reads outside the
//                        allowlisted clock/entropy seam (obs::ScopedClock,
//                        simnet::Rng / simnet time).
//   R2 wire-bounds     — buffer access in src/dnswire/ goes through the
//                        bounds-checked cursor helpers: no raw memcpy/
//                        pointer arithmetic/reinterpret_cast over wire bytes.
//   R3 raii-sockets    — no naked socket()/close()/recvfrom()/poll() calls
//                        outside the fd owners (src/sockets/, plus the one
//                        allowlisted accept-loop seam src/service/
//                        http_server.cc), and no poll() with an infinite
//                        (-1) timeout anywhere.
//   R4 header-hygiene  — headers use #pragma once (exactly once, no legacy
//                        include guards) and never `using namespace`.
//   R5 http-blocking   — src/service/ code outside the accept-loop seam
//                        runs on the HTTP event thread (handlers, stream
//                        pullers) and must never issue a blocking read:
//                        no recv()/read()/accept()/select()/fgets()/
//                        getline()/std::cin there.
//   R6 single-acceptance-seam
//                      — answer acceptance, duplicate-window fingerprinting
//                        and arbitration have exactly one implementation:
//                        the exchange kernel (src/core/exchange.*). Outside
//                        it, calls to dnswire::is_acceptable_response (except
//                        in src/dnswire/, which defines it), responses_conflict,
//                        rerandomize_query (except src/core/retry.*, which
//                        defines it) or a local payload/bytes hash are
//                        findings: transports must route answers through
//                        core::run_exchange / ExchangeLedger. Likewise query
//                        execution has one seam: a virtual that takes or
//                        returns a single query (a Message or QueryResult)
//                        declared on QueryTransport or AsyncQueryTransport
//                        is a finding — queries go out through
//                        AsyncQueryTransport::run(QueryBatch&).
//
// A second, scope-aware engine (scopes.h) tracks RAII lock-guard lifetimes
// through nested scopes — lambdas, early returns, unlock()/lock(), moved
// unique_locks — and enforces the concurrency discipline that clang's
// thread-safety analysis (engine 1, netbase/thread_annotations.h) cannot
// express:
//
//   R7 no-blocking-under-lock
//                      — no blocking syscall (fsync/::write/poll/recv*/
//                        send*/sleep_for/...) and no Simulator::run() while
//                        a lock guard is live. Whole-token matching: a named
//                        helper over a deliberate leaf lock (the journal
//                        writer) documents itself at its definition site.
//   R8 lock-order      — nested acquisitions build a per-file graph; edges
//                        contradicting tools/dnslint/lock_order.txt or
//                        closing a cycle are deadlock findings.
//   R9 annotation-coverage
//                      — annotated subsystems (src/service, src/obs,
//                        src/atlas, src/netbase, src/sockets) declare every
//                        mutex as the netbase::Mutex capability wrapper, and
//                        every field after a Mutex member carries
//                        DNSLOCATE_GUARDED_BY (atomics/condvars exempt).
//
// One rule reaches beyond src/ (discover_sources also walks examples/,
// bench/, tests/ and fuzz/ for it):
//
//   R10 threads-alias  — MeasurementOptions::shards is the fleet's one
//                        parallelism knob; `threads` survives only as the
//                        alias perfbench/ compiles against. Assigning
//                        `.threads` / `->threads` anywhere outside
//                        perfbench/ is a finding.
//
// Suppressions: `// dnslint: allow(<rule>): <reason>` on the offending line
// or alone on the line above (where it covers the whole statement that
// starts on the next line, however many lines it spans). The reason string
// is mandatory — an allow() without one is itself a finding
// (bad-suppression).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace dnslocate::lint {

/// Stable rule identifiers (used in diagnostics and allow() directives).
inline constexpr std::string_view kRuleDeterminism = "determinism";
inline constexpr std::string_view kRuleWireBounds = "wire-bounds";
inline constexpr std::string_view kRuleRaiiSockets = "raii-sockets";
inline constexpr std::string_view kRuleHeaderHygiene = "header-hygiene";
inline constexpr std::string_view kRuleHttpBlocking = "http-blocking";
inline constexpr std::string_view kRuleAcceptanceSeam = "single-acceptance-seam";
inline constexpr std::string_view kRuleNoBlockingUnderLock = "no-blocking-under-lock";
inline constexpr std::string_view kRuleLockOrder = "lock-order";
inline constexpr std::string_view kRuleAnnotationCoverage = "annotation-coverage";
inline constexpr std::string_view kRuleThreadsAlias = "threads-alias";
inline constexpr std::string_view kRuleBadSuppression = "bad-suppression";

/// One diagnostic.
struct Finding {
  std::string path;     // as given to lint_file (repo-relative by convention)
  std::size_t line = 0; // 1-based
  std::string rule;     // one of the kRule* ids
  std::string message;  // human-readable detail

  [[nodiscard]] std::string to_string() const;
};

/// Declared lock acquisition order for R8: one label per line, outermost
/// first, '#' starts a comment. A label is the last identifier of the lock
/// expression at the acquisition site (`run->mutex` -> "mutex").
struct LockOrder {
  std::vector<std::string> labels;

  /// Position in the declared order; -1 for undeclared labels (which are
  /// only checked for cycles, not rank).
  [[nodiscard]] int rank(std::string_view label) const;
};

/// Parse lock_order.txt contents.
[[nodiscard]] LockOrder parse_lock_order(std::string_view text);

/// Load `<root>/tools/dnslint/lock_order.txt`; empty order when absent (R8
/// then degrades to cycle detection only).
[[nodiscard]] LockOrder load_lock_order(const std::string& root);

/// Lint one file's contents. `path` decides which rules apply (R2 only under
/// src/dnswire/, R3 ownership outside src/sockets/, R4 for headers, R9 in
/// the annotated subsystems, R1-R9 only under src/, R10 everywhere but
/// perfbench/) and must be relative to the repo root (forward slashes). The
/// LockOrder overload feeds R8's declared-order check; the two-argument form
/// runs R8 in cycle-detection-only mode.
std::vector<Finding> lint_file(std::string_view path, std::string_view content);
std::vector<Finding> lint_file(std::string_view path, std::string_view content,
                               const LockOrder& lock_order);

/// Lint files on disk. Each entry of `files` is an absolute or cwd-relative
/// path; `root` is stripped to obtain the repo-relative path used for rule
/// scoping, and `<root>/tools/dnslint/lock_order.txt` (if present) supplies
/// the declared order for R8. Unreadable files produce a finding rather
/// than a crash.
std::vector<Finding> lint_paths(const std::string& root,
                                const std::vector<std::string>& files);

/// Discover lintable sources: every *.cc listed in `compile_commands_path`
/// (empty string = skip) that lives under root/src, plus every *.h / *.cc /
/// *.cpp found by walking root/src (the walk catches headers, which never
/// appear in a compilation database) and, for R10, root/examples, bench,
/// tests (minus the lint fixture trees) and fuzz. Returns absolute paths,
/// sorted, deduplicated.
std::vector<std::string> discover_sources(const std::string& root,
                                          const std::string& compile_commands_path);

}  // namespace dnslocate::lint
