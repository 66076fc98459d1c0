// dnslint's own tests: every rule R1-R10 fires on its fixture, suppressions
// with reasons are honoured, reasonless/unknown allows are findings, and
// clean code stays clean. Fixture trees live under tests/lint_fixtures/
// (DNSLINT_FIXTURES points there; the same trees gate the CLI via the
// dnslint_fixture_* ctest entries).
#include "dnslint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

namespace lint = dnslocate::lint;

namespace {

std::vector<lint::Finding> lint_tree(const std::string& root) {
  std::vector<std::string> files = lint::discover_sources(root, "");
  return lint::lint_paths(root, files);
}

std::set<std::string> rules_fired(const std::vector<lint::Finding>& findings) {
  std::set<std::string> rules;
  for (const auto& f : findings) rules.insert(f.rule);
  return rules;
}

std::size_t count_rule(const std::vector<lint::Finding>& findings, std::string_view rule,
                       std::string_view path_fragment = "") {
  return static_cast<std::size_t>(std::count_if(findings.begin(), findings.end(), [&](const auto& f) {
    return f.rule == rule && f.path.find(path_fragment) != std::string::npos;
  }));
}

const std::string kViolations = std::string(DNSLINT_FIXTURES) + "/violations";
const std::string kClean = std::string(DNSLINT_FIXTURES) + "/clean";

TEST(DnslintFixtures, EveryRuleFiresOnViolationTree) {
  auto findings = lint_tree(kViolations);
  auto rules = rules_fired(findings);
  EXPECT_TRUE(rules.count(std::string(lint::kRuleDeterminism)));
  EXPECT_TRUE(rules.count(std::string(lint::kRuleWireBounds)));
  EXPECT_TRUE(rules.count(std::string(lint::kRuleRaiiSockets)));
  EXPECT_TRUE(rules.count(std::string(lint::kRuleHeaderHygiene)));
  EXPECT_TRUE(rules.count(std::string(lint::kRuleHttpBlocking)));
  EXPECT_TRUE(rules.count(std::string(lint::kRuleAcceptanceSeam)));
  EXPECT_TRUE(rules.count(std::string(lint::kRuleNoBlockingUnderLock)));
  EXPECT_TRUE(rules.count(std::string(lint::kRuleLockOrder)));
  EXPECT_TRUE(rules.count(std::string(lint::kRuleAnnotationCoverage)));
  EXPECT_TRUE(rules.count(std::string(lint::kRuleThreadsAlias)));
  EXPECT_TRUE(rules.count(std::string(lint::kRuleBadSuppression)));
}

TEST(DnslintFixtures, DeterminismCatchesEveryEntropySource) {
  auto findings = lint_tree(kViolations);
  // random_device, two unseeded engines, srand, rand, system_clock, time().
  EXPECT_GE(count_rule(findings, lint::kRuleDeterminism, "bad_determinism"), 7u);
}

TEST(DnslintFixtures, WireBoundsCatchesRawAccess) {
  auto findings = lint_tree(kViolations);
  // memcpy, reinterpret_cast, .data() arithmetic (x2: memcpy line + raw line).
  EXPECT_GE(count_rule(findings, lint::kRuleWireBounds, "bad_wire"), 3u);
}

TEST(DnslintFixtures, RaiiSocketsCatchesNakedCallsAndInfinitePoll) {
  auto findings = lint_tree(kViolations);
  EXPECT_GE(count_rule(findings, lint::kRuleRaiiSockets, "bad_sockets"), 4u);
  // The deadline half applies inside src/sockets/ too...
  EXPECT_EQ(count_rule(findings, lint::kRuleRaiiSockets, "bad_poll"), 1u);
}

TEST(DnslintFixtures, HttpBlockingFiresOutsideTheListenerSeam) {
  auto findings = lint_tree(kViolations);
  // recv + fgets + getline + cin in handler-layer service code.
  EXPECT_GE(count_rule(findings, lint::kRuleHttpBlocking, "bad_handler"), 3u);
  // A blocking recv on the event thread is doubly wrong: it is also a naked
  // fd call outside the owners.
  EXPECT_GE(count_rule(findings, lint::kRuleRaiiSockets, "bad_handler"), 1u);
  // The accept-loop seam (src/service/http_server.cc) is exempt from R5 and
  // from R3 ownership, but the finite-deadline half of R3 still applies:
  // exactly the infinite poll() fires, not the naked accept().
  EXPECT_EQ(count_rule(findings, lint::kRuleHttpBlocking, "service/http_server"), 0u);
  EXPECT_EQ(count_rule(findings, lint::kRuleRaiiSockets, "service/http_server"), 1u);
}

TEST(DnslintFixtures, HeaderHygieneCatchesGuardAndUsingNamespace) {
  auto findings = lint_tree(kViolations);
  EXPECT_GE(count_rule(findings, lint::kRuleHeaderHygiene, "bad_header"), 3u);
}

TEST(DnslintFixtures, BadSuppressionsAreFindings) {
  auto findings = lint_tree(kViolations);
  // Reasonless allow + unknown rule; and the reasonless allow does NOT
  // suppress, so the rand() beneath it still fires.
  EXPECT_GE(count_rule(findings, lint::kRuleBadSuppression, "bad_suppression"), 2u);
  EXPECT_GE(count_rule(findings, lint::kRuleDeterminism, "bad_suppression"), 1u);
}

TEST(DnslintFixtures, AcceptanceSeamCatchesStrayArbitration) {
  auto findings = lint_tree(kViolations);
  // is_acceptable_response (decl + call), responses_conflict (decl + call),
  // rerandomize_query (decl + call), bytes_hash (def).
  EXPECT_GE(count_rule(findings, lint::kRuleAcceptanceSeam, "bad_acceptance"), 7u);
}

TEST(DnslintFixtures, AcceptanceSeamCatchesAStrayAttemptTimeline) {
  auto findings = lint_tree(kViolations);
  // backoff_before (decl + call) and prepare_retry_attempt (decl + call).
  EXPECT_EQ(count_rule(findings, lint::kRuleAcceptanceSeam, "bad_timeline"), 4u);
  // The clean tree's engine drives an exchange and its retry.cc defines
  // backoff_before: neither is a finding.
  for (const auto& f : lint_tree(kClean))
    EXPECT_NE(f.rule, std::string(lint::kRuleAcceptanceSeam)) << f.to_string();
}

TEST(DnslintFixtures, AcceptanceSeamCatchesSingleQueryTransportVirtuals) {
  auto findings = lint_tree(kViolations);
  // QueryTransport::query and AsyncQueryTransport::send_one (a declaration
  // spanning two lines); the capability virtual and run() are not findings.
  EXPECT_EQ(count_rule(findings, lint::kRuleAcceptanceSeam, "bad_transport_seam"), 2u);
}

TEST(DnslintFixtures, ThreadsAliasFiresOutsidePerfbench) {
  auto findings = lint_tree(kViolations);
  // `.threads =`, `->threads =` and a designated initializer in bench/.
  EXPECT_EQ(count_rule(findings, lint::kRuleThreadsAlias, "bad_threads_alias"), 3u);
}

TEST(DnslintFixtures, BlockingUnderLockCatchesThePr8Reconstruction) {
  auto findings = lint_tree(kViolations);
  // ::write and ::fsync of the journal fd under the service-wide mutex.
  EXPECT_EQ(count_rule(findings, lint::kRuleNoBlockingUnderLock, "bad_submit_fsync"), 2u);
}

TEST(DnslintFixtures, LockOrderCatchesDeclaredAndCyclicInversions) {
  auto findings = lint_tree(kViolations);
  // One edge contradicting the fixture tree's lock_order.txt (mu_b -> mu_a)
  // and one closing a cycle among undeclared labels (mu_d -> mu_c).
  EXPECT_EQ(count_rule(findings, lint::kRuleLockOrder, "bad_lock_order"), 2u);
}

TEST(DnslintFixtures, AnnotationCoverageCatchesRawMutexAndBareField) {
  auto findings = lint_tree(kViolations);
  // A raw std::mutex member plus a field after a Mutex member without
  // DNSLOCATE_GUARDED_BY.
  EXPECT_EQ(count_rule(findings, lint::kRuleAnnotationCoverage, "bad_lock_annotations"), 2u);
}

TEST(DnslintFixtures, CleanTreeIsClean) {
  auto findings = lint_tree(kClean);
  for (const auto& f : findings) ADD_FAILURE() << f.to_string();
  EXPECT_TRUE(findings.empty());
}

// ------------------------------------------------------------------------
// Inline-content cases: scoping and scrubbing behaviour pinned precisely.

TEST(DnslintRules, RulesAreScopedByPath) {
  const std::string wire_sin = "void f(char* d, const char* s) { memcpy(d, s, 4); }\n";
  // memcpy is only a finding under src/dnswire/.
  EXPECT_EQ(lint::lint_file("src/dnswire/x.cc", wire_sin).size(), 1u);
  EXPECT_TRUE(lint::lint_file("src/core/x.cc", wire_sin).empty());
  EXPECT_TRUE(lint::lint_file("tests/x.cc", wire_sin).empty());

  const std::string socket_sin = "int f() { return socket(2, 2, 0); }\n";
  EXPECT_EQ(lint::lint_file("src/core/x.cc", socket_sin).size(), 1u);
  EXPECT_TRUE(lint::lint_file("src/sockets/x.cc", socket_sin).empty());
}

TEST(DnslintRules, ServiceListenerSeamScoping) {
  const std::string blocking_read =
      "int f(int fd) { char b[4]; return static_cast<int>(recv(fd, b, 4, 0)); }\n";
  // Handler-layer service code: naked fd call (R3) AND a blocking read on
  // the event thread (R5).
  EXPECT_EQ(lint::lint_file("src/service/api.cc", blocking_read).size(), 2u);
  // Outside src/service/, only R3 applies.
  EXPECT_EQ(lint::lint_file("src/core/x.cc", blocking_read).size(), 1u);
  // The accept-loop seam owns its fds and is exempt from both.
  EXPECT_TRUE(lint::lint_file("src/service/http_server.cc", blocking_read).empty());

  // The seam keeps the finite-deadline half of R3.
  const std::string infinite = "int g(pollfd* p) { return poll(p, 1, -1); }\n";
  EXPECT_EQ(lint::lint_file("src/service/http_server.cc", infinite).size(), 1u);
}

TEST(DnslintRules, AcceptanceSeamScoping) {
  const std::string acceptance = "bool ok = is_acceptable_response(q, r);\n";
  // Acceptance logic is only legal inside the kernel and the wire layer
  // that defines the predicate.
  EXPECT_EQ(lint::lint_file("src/sockets/x.cc", acceptance).size(), 1u);
  EXPECT_EQ(lint::lint_file("src/core/x.cc", acceptance).size(), 1u);
  EXPECT_TRUE(lint::lint_file("src/core/exchange.cc", acceptance).empty());
  EXPECT_TRUE(lint::lint_file("src/dnswire/message.cc", acceptance).empty());
  EXPECT_TRUE(lint::lint_file("tests/x.cc", acceptance).empty());

  const std::string reroll = "rerandomize_query(m, policy, rng);\n";
  EXPECT_EQ(lint::lint_file("src/sockets/x.cc", reroll).size(), 1u);
  EXPECT_TRUE(lint::lint_file("src/core/retry.cc", reroll).empty());
  EXPECT_TRUE(lint::lint_file("src/core/exchange.cc", reroll).empty());

  const std::string conflict = "bool c = responses_conflict(a, b);\n";
  EXPECT_EQ(lint::lint_file("src/core/x.cc", conflict).size(), 1u);
  // The kernel header is exempt from R6 (other rules, e.g. header hygiene,
  // still apply to it).
  for (const auto& f : lint::lint_file("src/core/exchange.h", conflict))
    EXPECT_NE(f.rule, std::string(lint::kRuleAcceptanceSeam)) << f.to_string();
}

TEST(DnslintRules, AttemptTimelineScoping) {
  // Backoff arithmetic and the retry re-roll live in the exchange kernel
  // and the retry policy that defines them; tests may call them freely.
  for (const std::string code : {"auto wait = policy.backoff_before(attempt + 1);\n",
                                 "prepare_retry_attempt(message, policy, rng);\n"}) {
    EXPECT_EQ(lint::lint_file("src/sockets/udp_engine.cc", code).size(), 1u) << code;
    EXPECT_EQ(lint::lint_file("src/core/sim_transport.cc", code).size(), 1u) << code;
    EXPECT_TRUE(lint::lint_file("src/core/exchange.cc", code).empty()) << code;
    EXPECT_TRUE(lint::lint_file("src/core/retry.cc", code).empty()) << code;
    EXPECT_TRUE(lint::lint_file("tests/test_retry_semantics.cc", code).empty()) << code;
  }
}

TEST(DnslintRules, TransportInterfacesKeepOneExecutionSeam) {
  const std::string regrown =
      "class QueryTransport {\n"
      " public:\n"
      "  virtual bool supports_ttl() const { return false; }\n"
      "  virtual QueryResult query(const Endpoint& server,\n"
      "                            const Message& message) = 0;\n"
      "};\n";
  auto findings = lint::lint_file("src/core/x.cc", regrown);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, std::string(lint::kRuleAcceptanceSeam));
  EXPECT_EQ(findings[0].line, 4u);

  // The sanctioned one-at-a-time base, subclasses and forward declarations
  // are not the interface.
  const std::string sequential =
      "class QueryTransport;\n"
      "class SequentialTransport : public QueryTransport {\n"
      " protected:\n"
      "  virtual QueryResult query(const Endpoint& s, const Message& m) = 0;\n"
      "};\n"
      "class TcpTransport : public SequentialTransport {\n"
      "  QueryResult query(const Endpoint& s, const Message& m) override;\n"
      "};\n";
  EXPECT_TRUE(lint::lint_file("src/sockets/x.cc", sequential).empty());
}

TEST(DnslintRules, ThreadsAliasScoping) {
  const std::string assign = "void f(MeasurementOptions& o) { o.threads = 4; }\n";
  EXPECT_EQ(lint::lint_file("bench/x.cc", assign).size(), 1u);
  EXPECT_EQ(lint::lint_file("tests/x.cc", assign).size(), 1u);
  EXPECT_EQ(lint::lint_file("examples/x.cpp", assign).size(), 1u);
  EXPECT_EQ(lint::lint_file("src/service/x.cc", assign).size(), 1u);
  EXPECT_TRUE(lint::lint_file("perfbench/x.cc", assign).empty());

  const std::string lookalikes =
      "bool g(MeasurementOptions& o, ServiceConfig& c, unsigned threads) {\n"
      "  c.run_threads = 2;\n"
      "  threads = 3;\n"
      "  return o.threads == threads;\n"
      "}\n";
  EXPECT_TRUE(lint::lint_file("bench/x.cc", lookalikes).empty());

  const std::string allowed =
      "// dnslint: allow(threads-alias): exercises the alias itself\n"
      "void f(MeasurementOptions& o) { o.threads = 4; }\n";
  EXPECT_TRUE(lint::lint_file("tests/x.cc", allowed).empty());
}

TEST(DnslintRules, SeamFilesMayTouchEntropyAndClock) {
  const std::string seam = "#include <random>\nstd::random_device dev;\n";
  EXPECT_TRUE(lint::lint_file("src/simnet/rng.cc", seam).empty());
  EXPECT_TRUE(lint::lint_file("src/obs/clock.cc", seam).empty());
  EXPECT_FALSE(lint::lint_file("src/core/detector.cc", seam).empty());
}

TEST(DnslintRules, ScrubberIgnoresCommentsStringsAndRawStrings) {
  const std::string hidden =
      "// rand() in a comment\n"
      "/* std::random_device in a block\n   comment */\n"
      "const char* s = \"rand() memcpy( system_clock\";\n"
      "const char* r = R\"(rand() poll(x, -1))\";\n";
  EXPECT_TRUE(lint::lint_file("src/core/x.cc", hidden).empty());
}

TEST(DnslintRules, SuppressionNeedsMatchingRuleAndLine) {
  // allow(wire-bounds) does not silence a determinism finding.
  const std::string wrong_rule =
      "int x = rand();  // dnslint: allow(wire-bounds): wrong rule\n";
  auto findings = lint::lint_file("src/core/x.cc", wrong_rule);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, std::string(lint::kRuleDeterminism));

  // A line-above allow does not reach two lines down.
  const std::string too_far =
      "// dnslint: allow(determinism): only covers the next line\n"
      "int a = 0;\n"
      "int b = rand();\n";
  EXPECT_EQ(lint::lint_file("src/core/x.cc", too_far).size(), 1u);
}

TEST(DnslintRules, FindingsCarryFileLineAndRule) {
  const std::string content = "int a;\nint b = rand();\n";
  auto findings = lint::lint_file("src/core/x.cc", content);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[0].path, "src/core/x.cc");
  EXPECT_NE(findings[0].to_string().find("src/core/x.cc:2: error: [determinism]"),
            std::string::npos);
}

TEST(DnslintRules, MemberCallsAndQualifiedLookalikesAreNotFlagged) {
  const std::string benign =
      "auto t = sim.time();\n"            // member time() is sim time
      "stream.close();\n"                 // RAII close
      "auto v = obj->poll();\n"           // member poll
      "int fclose_result = std::fclose(f);\n";
  EXPECT_TRUE(lint::lint_file("src/core/x.cc", benign).empty());
}

// ------------------------------------------------------------------------
// Scope-aware engine (R7-R9): guard lifetimes through nested scopes.

std::size_t count_rule_inline(const std::vector<lint::Finding>& findings,
                              std::string_view rule) {
  return static_cast<std::size_t>(std::count_if(
      findings.begin(), findings.end(), [&](const auto& f) { return f.rule == rule; }));
}

TEST(DnslintScopes, BlockingCallUnderGuardFires) {
  const std::string bad =
      "void f(std::mutex& m, int fd) {\n"
      "  std::lock_guard<std::mutex> lock(m);\n"
      "  ::fsync(fd);\n"
      "}\n";
  auto findings = lint::lint_file("src/core/x.cc", bad);
  ASSERT_EQ(count_rule_inline(findings, lint::kRuleNoBlockingUnderLock), 1u);
  EXPECT_EQ(findings[0].line, 3u);
  // The rule only polices src/.
  EXPECT_TRUE(lint::lint_file("tests/x.cc", bad).empty());
}

TEST(DnslintScopes, GuardDiesWithItsScope) {
  const std::string ok =
      "void f(std::mutex& m, int fd) {\n"
      "  {\n"
      "    std::lock_guard<std::mutex> lock(m);\n"
      "  }\n"
      "  ::fsync(fd);\n"
      "}\n";
  EXPECT_TRUE(lint::lint_file("src/core/x.cc", ok).empty());
}

TEST(DnslintScopes, UnlockAndMoveReleaseTheGuard) {
  const std::string unlocked =
      "void f(std::mutex& m, int fd) {\n"
      "  std::unique_lock<std::mutex> lock(m);\n"
      "  lock.unlock();\n"
      "  ::fsync(fd);\n"
      "  lock.lock();\n"
      "  lock.unlock();\n"
      "  ::write(fd, \"x\", 1);\n"
      "}\n";
  EXPECT_TRUE(lint::lint_file("src/core/x.cc", unlocked).empty());

  const std::string moved =
      "void f(std::mutex& m, int fd) {\n"
      "  std::unique_lock<std::mutex> lock(m);\n"
      "  auto sink = std::move(lock);\n"
      "  ::fsync(fd);\n"
      "}\n";
  // `lock` no longer owns the mutex; `sink` was never declared as a tracked
  // guard type declaration, so nothing is held by `lock` itself. (The
  // conservative tracker follows ownership, not aliases.)
  auto findings = lint::lint_file("src/core/x.cc", moved);
  EXPECT_EQ(count_rule_inline(findings, lint::kRuleNoBlockingUnderLock), 0u);
}

TEST(DnslintScopes, LambdaBodySuspendsEnclosingGuards) {
  const std::string deferred =
      "void f(std::mutex& m) {\n"
      "  std::lock_guard<std::mutex> lock(m);\n"
      "  auto task = [](int fd) -> int {\n"
      "    ::fsync(fd);\n"
      "    return 0;\n"
      "  };\n"
      "  (void)task;\n"
      "}\n";
  EXPECT_TRUE(lint::lint_file("src/core/x.cc", deferred).empty());

  // ...but a guard declared *inside* the lambda body is live there.
  const std::string inside =
      "void f(std::mutex& m) {\n"
      "  auto task = [&m](int fd) {\n"
      "    std::lock_guard<std::mutex> lock(m);\n"
      "    ::fsync(fd);\n"
      "  };\n"
      "  (void)task;\n"
      "}\n";
  auto findings = lint::lint_file("src/core/x.cc", inside);
  EXPECT_EQ(count_rule_inline(findings, lint::kRuleNoBlockingUnderLock), 1u);
}

TEST(DnslintScopes, SimulatorRunUnderLockFires) {
  const std::string bad =
      "void f(std::mutex& m, simnet::Simulator& sim) {\n"
      "  std::lock_guard<std::mutex> lock(m);\n"
      "  sim.run(std::chrono::seconds(1));\n"
      "}\n";
  auto findings = lint::lint_file("src/core/x.cc", bad);
  EXPECT_EQ(count_rule_inline(findings, lint::kRuleNoBlockingUnderLock), 1u);
}

TEST(DnslintScopes, LockOrderChecksDeclaredOrderAndCycles) {
  lint::LockOrder order;
  order.labels = {"outer", "inner"};
  EXPECT_EQ(order.rank("outer"), 0);
  EXPECT_EQ(order.rank("inner"), 1);
  EXPECT_EQ(order.rank("stranger"), -1);

  const std::string inverted =
      "void f(std::mutex& outer, std::mutex& inner) {\n"
      "  std::lock_guard<std::mutex> a(inner);\n"
      "  std::lock_guard<std::mutex> b(outer);\n"
      "}\n";
  auto findings = lint::lint_file("src/core/x.cc", inverted, order);
  EXPECT_EQ(count_rule_inline(findings, lint::kRuleLockOrder), 1u);

  // Right order: clean.
  const std::string ordered =
      "void f(std::mutex& outer, std::mutex& inner) {\n"
      "  std::lock_guard<std::mutex> a(outer);\n"
      "  std::lock_guard<std::mutex> b(inner);\n"
      "}\n";
  EXPECT_TRUE(lint::lint_file("src/core/x.cc", ordered, order).empty());

  // Undeclared labels: cycle detection still applies within the file.
  const std::string cyclic =
      "void f(std::mutex& p, std::mutex& q) {\n"
      "  { std::lock_guard<std::mutex> a(p); std::lock_guard<std::mutex> b(q); }\n"
      "  { std::lock_guard<std::mutex> b(q); std::lock_guard<std::mutex> a(p); }\n"
      "}\n";
  auto cycle_findings = lint::lint_file("src/core/x.cc", cyclic);
  EXPECT_EQ(count_rule_inline(cycle_findings, lint::kRuleLockOrder), 1u);
}

TEST(DnslintScopes, LockOrderParsesConfigText) {
  lint::LockOrder order = lint::parse_lock_order(
      "# comment\n  mutex_   # service-wide\nmutex\n\n");
  ASSERT_EQ(order.labels.size(), 2u);
  EXPECT_EQ(order.labels[0], "mutex_");
  EXPECT_EQ(order.labels[1], "mutex");
}

TEST(DnslintScopes, AnnotationCoverageRequiresWrapperAndGuardedBy) {
  const std::string raw_mutex =
      "class C {\n"
      " private:\n"
      "  std::mutex m_;\n"
      "};\n";
  // Only annotated subsystems are policed.
  EXPECT_EQ(count_rule_inline(lint::lint_file("src/obs/x.h", raw_mutex),
                              lint::kRuleAnnotationCoverage),
            1u);
  EXPECT_EQ(count_rule_inline(lint::lint_file("src/core/x.h", raw_mutex),
                              lint::kRuleAnnotationCoverage),
            0u);

  const std::string bare_field =
      "class C {\n"
      " private:\n"
      "  mutable netbase::Mutex mutex_;\n"
      "  int counter_ = 0;\n"
      "};\n";
  EXPECT_EQ(count_rule_inline(lint::lint_file("src/service/x.h", bare_field),
                              lint::kRuleAnnotationCoverage),
            1u);

  const std::string covered =
      "class C {\n"
      " public:\n"
      "  void bump() DNSLOCATE_EXCLUDES(mutex_);\n"
      "  std::size_t total() const;\n"
      " private:\n"
      "  std::string name_;\n"  // before the Mutex: immutable by convention
      "  mutable netbase::Mutex mutex_;\n"
      "  std::condition_variable cv_;\n"
      "  std::atomic<bool> stop_{false};\n"
      "  int counter_ DNSLOCATE_GUARDED_BY(mutex_) = 0;\n"
      "  std::vector<int> bins_ DNSLOCATE_GUARDED_BY(mutex_);\n"
      "};\n";
  EXPECT_EQ(count_rule_inline(lint::lint_file("src/service/x.h", covered),
                              lint::kRuleAnnotationCoverage),
            0u);
}

TEST(DnslintScopes, SuppressionsCoverTheNewRules) {
  const std::string suppressed =
      "void f(std::mutex& m, int fd) {\n"
      "  std::lock_guard<std::mutex> lock(m);\n"
      "  // dnslint: allow(no-blocking-under-lock): leaf lock guards the fd itself\n"
      "  ::fsync(fd);\n"
      "}\n";
  EXPECT_TRUE(lint::lint_file("src/core/x.cc", suppressed).empty());
}

// ------------------------------------------------------------------------
// Multi-line statements: a line-above allow covers the whole statement.

TEST(DnslintSuppressions, LineAboveAllowCoversTheWholeStatement) {
  const std::string spread =
      "// dnslint: allow(determinism): seeding comparison baseline\n"
      "int x = rand() +\n"
      "        rand() +\n"
      "        rand();\n";
  EXPECT_TRUE(lint::lint_file("src/core/x.cc", spread).empty());

  // Without the allow, every line of the statement fires.
  const std::string bare =
      "int x = rand() +\n"
      "        rand() +\n"
      "        rand();\n";
  EXPECT_EQ(lint::lint_file("src/core/x.cc", bare).size(), 3u);

  // The statement's end is respected: the next statement is NOT covered.
  const std::string next_stmt =
      "// dnslint: allow(determinism): covers only the call below\n"
      "int x = rand(\n"
      ");\n"
      "int y = rand();\n";
  auto findings = lint::lint_file("src/core/x.cc", next_stmt);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4u);
}

TEST(DnslintDiscovery, WalksHeadersAndSources) {
  auto files = lint::discover_sources(kViolations, "");
  ASSERT_FALSE(files.empty());
  bool has_header = false, has_source = false;
  for (const auto& f : files) {
    if (f.find("bad_header.h") != std::string::npos) has_header = true;
    if (f.find("bad_wire.cc") != std::string::npos) has_source = true;
  }
  EXPECT_TRUE(has_header);
  EXPECT_TRUE(has_source);
  // Beyond src/, for the threads-alias rule.
  EXPECT_TRUE(std::any_of(files.begin(), files.end(), [](const std::string& f) {
    return f.find("bench/bad_threads_alias.cc") != std::string::npos;
  }));
}

TEST(DnslintDiscovery, RepoWalkSkipsTheFixtureTrees) {
  const auto repo = std::filesystem::path(DNSLINT_FIXTURES).parent_path().parent_path();
  auto files = lint::discover_sources(repo.string(), "");
  ASSERT_FALSE(files.empty());
  for (const auto& f : files) EXPECT_EQ(f.find("lint_fixtures"), std::string::npos) << f;
  EXPECT_TRUE(std::any_of(files.begin(), files.end(), [](const std::string& f) {
    return f.find("examples/atlas_pilot.cpp") != std::string::npos;
  }));
}

}  // namespace
