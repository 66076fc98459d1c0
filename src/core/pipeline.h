// The full three-part localization pipeline (Figure 2), plus the §4.1.2
// transparency test. This is the library's primary public entry point.
#pragma once

#include <optional>

#include "core/cpe_localizer.h"
#include "core/detector.h"
#include "core/fingerprint.h"
#include "core/isp_localizer.h"
#include "core/replication.h"
#include "core/transparency.h"
#include "core/verdict.h"

namespace dnslocate::core {

/// Pipeline configuration.
struct PipelineConfig {
  /// Public (WAN) address of the client's CPE. Without it step 2 cannot run
  /// and CPE interception cannot be distinguished from ISP interception.
  std::optional<netbase::IpAddress> cpe_public_ip;
  InterceptionDetector::Config detection;
  CpeLocalizer::Config cpe_check;
  IspLocalizer::Config bogon;
  TransparencyTester::Config transparency;
  /// Run the whoami transparency test on intercepted probes (§4.1.2).
  bool run_transparency = true;
  /// Also probe for query replication on intercepted probes (§3.1 notes
  /// replication and diversion are indistinguishable for localization; this
  /// records which one it was).
  bool detect_replication = false;
  ReplicationProber::Config replication;
  /// Actively fingerprint in-path middleboxes by their parsing ambiguities
  /// (core/fingerprint.h). Off by default: it adds probe traffic and the
  /// baseline corpus predates it.
  bool run_fingerprint = false;
  FingerprintProber::Config fingerprint;

  /// Seed for the probe's transaction-ID streams. The pipeline derives an
  /// independent per-stage stream from this (overriding the stage configs'
  /// own id_seed defaults), so IDs are unpredictable to an off-path spoofer
  /// yet replay bit-identically per seed — and are fixed at batch-build
  /// time, so every engine puts the same IDs on the wire whatever its
  /// admission cap.
  std::uint64_t query_id_seed = 0x1d5eed;

  /// Stamp one retry policy onto every step's QueryOptions. Safe by
  /// construction with respect to §3.3: exhausted retries still report a
  /// timeout, so silence stays silence (see core/retry.h).
  void apply_retry_policy(const RetryPolicy& policy) {
    detection.query.retry = policy;
    cpe_check.query.retry = policy;
    bogon.query.retry = policy;
    transparency.query.retry = policy;
    replication.query.retry = policy;
    fingerprint.query.retry = policy;
  }

  /// Stamp one cancellation token onto every step's QueryOptions so the
  /// transports bound their waits by it (see core/cancellation.h).
  void apply_cancel(const CancelToken& token) {
    detection.query.cancel = token;
    cpe_check.query.cancel = token;
    bogon.query.cancel = token;
    transparency.query.cancel = token;
    replication.query.cancel = token;
    fingerprint.query.cancel = token;
  }
};

/// The pipeline's stages, as bit positions in ProbeVerdict::skipped_stages.
enum class PipelineStage : std::uint8_t {
  detection = 0,
  cpe_check = 1,
  bogon = 2,
  replication = 3,
  transparency = 4,
  fingerprint = 5,
};

/// Everything the pipeline learned about one vantage point.
struct ProbeVerdict {
  DetectionReport detection;
  std::optional<CpeCheckReport> cpe_check;      // only when intercepted
  std::optional<BogonReport> bogon;             // only when needed
  std::optional<TransparencyReport> transparency;
  std::optional<ReplicationReport> replication;   // when detect_replication
  /// Interceptor fingerprint (when run_fingerprint): which parsing
  /// ambiguities the path exhibits and the zoo personality they name.
  std::optional<FingerprintReport> fingerprint;
  InterceptorLocation location = InterceptorLocation::not_intercepted;
  /// Transport activity for this probe's run: queries, retry attempts, and
  /// timeouts — the loss-resilience observability the fault ablation reads.
  TransportTelemetry telemetry;
  /// Stages the run skipped because its cancellation token fired, as a
  /// bitmask of (1 << PipelineStage). A partial verdict keeps completed
  /// stages and never upgrades a skipped stage into an interception claim:
  /// skipped localization leaves `location` at `unknown` (interception was
  /// already detected) or `not_intercepted` (nothing was detected — and
  /// nothing is claimed).
  std::uint8_t skipped_stages = 0;

  [[nodiscard]] bool intercepted() const {
    return location != InterceptorLocation::not_intercepted;
  }
  /// Conflicting answers disagreed and no uncontested evidence decided the
  /// location: interception is established, its locus deliberately is not.
  [[nodiscard]] bool contested() const { return location == InterceptorLocation::contested; }
  [[nodiscard]] bool partial() const { return skipped_stages != 0; }
  [[nodiscard]] bool stage_skipped(PipelineStage stage) const {
    return (skipped_stages & static_cast<std::uint8_t>(1u << static_cast<unsigned>(stage))) != 0;
  }
};

/// Runs Figure 2's decision procedure:
///   1. location queries -> intercepted?
///   2. version.bind comparison -> CPE?
///   3. bogon queries -> within ISP? else unknown.
class LocalizationPipeline {
 public:
  explicit LocalizationPipeline(PipelineConfig config = {}) : config_(std::move(config)) {}

  /// Run the decision procedure, fanning each stage's query set out on
  /// `engine`. `cancel` is checked between stages: once it fires, remaining
  /// stages are marked skipped and the verdict returns partial (the inert
  /// default token never fires). An engine that drains a batch mid-flight
  /// (async cancellation) gets that stage marked skipped too — its partial
  /// report is never upgraded into a localization claim.
  ProbeVerdict run(AsyncQueryTransport& engine, const CancelToken& cancel = {});

  [[nodiscard]] const PipelineConfig& config() const { return config_; }

 private:
  PipelineConfig config_;
};

}  // namespace dnslocate::core
