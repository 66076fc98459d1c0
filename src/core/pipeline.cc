#include "core/pipeline.h"

#include "obs/span.h"

namespace dnslocate::core {
namespace {

void mark_skipped(ProbeVerdict& verdict, PipelineStage stage) {
  verdict.skipped_stages |=
      static_cast<std::uint8_t>(1u << static_cast<unsigned>(stage));
  if (obs::metrics_enabled()) {
    static obs::Counter& skipped =
        obs::registry().counter("pipeline_stages_skipped_total");
    skipped.add_always(1);
  }
}

/// Independent per-stage ID stream derived from the probe-level seed, so no
/// stage's draw count perturbs another's IDs.
std::uint64_t stage_id_seed(std::uint64_t query_id_seed, PipelineStage stage) {
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  return simnet::Rng(query_id_seed ^ (kGolden * (static_cast<std::uint64_t>(stage) + 1)))
      .next_u64();
}

}  // namespace

ProbeVerdict LocalizationPipeline::run(AsyncQueryTransport& engine, const CancelToken& cancel) {
  obs::Span run_span("pipeline/run");
  if (obs::metrics_enabled()) {
    static obs::Counter& runs = obs::registry().counter("pipeline_runs_total");
    runs.add_always(1);
  }
  QueryTransport& transport = engine.transport();
  ProbeVerdict verdict;
  TransportTelemetry before = transport.telemetry();
  auto finish = [&]() -> ProbeVerdict {
    verdict.telemetry = transport.telemetry() - before;
    return verdict;
  };

  // A working copy so the token and derived ID seeds reach every step's
  // config without mutating the pipeline's own configuration.
  PipelineConfig config = config_;
  if (cancel.active()) config.apply_cancel(cancel);
  config.detection.id_seed = stage_id_seed(config.query_id_seed, PipelineStage::detection);
  config.cpe_check.id_seed = stage_id_seed(config.query_id_seed, PipelineStage::cpe_check);
  config.bogon.id_seed = stage_id_seed(config.query_id_seed, PipelineStage::bogon);
  config.replication.id_seed = stage_id_seed(config.query_id_seed, PipelineStage::replication);
  config.transparency.id_seed = stage_id_seed(config.query_id_seed, PipelineStage::transparency);
  config.fingerprint.id_seed = stage_id_seed(config.query_id_seed, PipelineStage::fingerprint);

  auto skip_tail = [&](bool include_cpe_and_bogon) {
    if (include_cpe_and_bogon) {
      mark_skipped(verdict, PipelineStage::cpe_check);
      mark_skipped(verdict, PipelineStage::bogon);
    }
    if (config.detect_replication) mark_skipped(verdict, PipelineStage::replication);
    if (config.run_transparency) mark_skipped(verdict, PipelineStage::transparency);
    if (config.run_fingerprint) mark_skipped(verdict, PipelineStage::fingerprint);
  };

  // Opt-in active fingerprinting (core/fingerprint.h). Runs on every
  // non-cancelled path — a DPI middlebox that never alters answer *content*
  // is invisible to detection yet still fingerprintable. Targets the first
  // interception suspect when there is one, the configured default when not.
  auto fingerprint_stage = [&](const std::vector<resolvers::PublicResolverKind>& suspects) {
    if (!config.run_fingerprint) return;
    if (cancel.cancelled()) {
      mark_skipped(verdict, PipelineStage::fingerprint);
      return;
    }
    obs::Span span("pipeline/fingerprint");
    FingerprintProber prober(config.fingerprint);
    resolvers::PublicResolverKind target =
        suspects.empty() ? config.fingerprint.default_target : suspects.front();
    bool drained = false;
    FingerprintReport report = prober.run(engine, target, &drained);
    if (drained) {
      mark_skipped(verdict, PipelineStage::fingerprint);
    } else {
      verdict.fingerprint = std::move(report);
    }
  };

  if (cancel.cancelled()) {
    // Out of budget before any query was sent: nothing ran, nothing is
    // claimed. Every configured stage is marked skipped.
    mark_skipped(verdict, PipelineStage::detection);
    skip_tail(true);
    return finish();
  }

  // Step 1: which resolvers are intercepted? (§3.1)
  bool detection_drained = false;
  {
    obs::Span span("pipeline/detection");
    InterceptionDetector detector(config.detection);
    verdict.detection = detector.run(engine, &detection_drained);
  }
  if (detection_drained) mark_skipped(verdict, PipelineStage::detection);

  // IPv6 interception is rare and handled jointly with v4 in the paper's
  // analyses (§4.1.1); localization proceeds on the v4 observations, falling
  // back to v6 when only v6 is intercepted.
  netbase::IpFamily family = verdict.detection.any_intercepted(netbase::IpFamily::v4)
                                 ? netbase::IpFamily::v4
                                 : netbase::IpFamily::v6;
  auto suspects = verdict.detection.intercepted_kinds(family);
  if (suspects.empty()) {
    if (!detection_drained && verdict.detection.any_contested()) {
      // Conflicting answers disagreed on interception and no resolver shows
      // *uncontested* interception: something tampered with the probe's
      // answers, but every localization signal would rest on the contested
      // data. Never fabricate a location from it (§3.1's conservatism,
      // extended to adversarial paths).
      verdict.location = InterceptorLocation::contested;
      fingerprint_stage(suspects);
      return finish();
    }
    // With a drained detection batch the verdict stays partial: "nothing was
    // detected" is only a claim when detection actually completed.
    verdict.location = InterceptorLocation::not_intercepted;
    if (detection_drained) {
      skip_tail(true);
    } else {
      fingerprint_stage(suspects);
    }
    return finish();
  }

  if (detection_drained || cancel.cancelled()) {
    // Interception is established but the budget is gone: localization is
    // honestly "unknown" — never a fabricated CPE/ISP attribution.
    verdict.location = InterceptorLocation::unknown;
    skip_tail(true);
    return finish();
  }

  // Step 2: version.bind comparison against the CPE's public IP (§3.2).
  bool cpe_drained = false;
  if (config.cpe_public_ip) {
    obs::Span span("pipeline/cpe_check");
    CpeLocalizer::Config cpe_config = config.cpe_check;
    cpe_config.family = family;
    CpeLocalizer cpe(cpe_config);
    CpeCheckReport report =
        cpe.run(engine, *config.cpe_public_ip, suspects, &cpe_drained);
    if (cpe_drained) {
      mark_skipped(verdict, PipelineStage::cpe_check);
    } else {
      verdict.cpe_check = std::move(report);
    }
  }

  // Tracks whether any stage's evidence drew conflicting answers. A
  // location is still claimed when *uncontested* corroboration exists (the
  // CPE-addressed version.bind match, an uncontested bogon answer — both
  // unreachable by a transit-core injector); otherwise conflicting evidence
  // degrades the verdict to `contested`, never a fabricated location.
  bool evidence_contested = verdict.detection.any_contested();

  if (verdict.cpe_check && verdict.cpe_check->cpe_is_interceptor) {
    // Corroborated: the query addressed to the CPE's own public IP cannot
    // travel beyond the CPE (§3.2), so no in-core adversary can fabricate
    // the string match that produced this attribution.
    verdict.location = InterceptorLocation::cpe;
  } else if (cpe_drained || cancel.cancelled()) {
    verdict.location = InterceptorLocation::unknown;
    mark_skipped(verdict, PipelineStage::bogon);
  } else {
    evidence_contested =
        evidence_contested || (verdict.cpe_check && verdict.cpe_check->contested);
    // Step 3: bogon probing (§3.3).
    obs::Span span("pipeline/bogon");
    IspLocalizer isp(config.bogon);
    bool bogon_drained = false;
    BogonReport report = isp.run(engine, &bogon_drained);
    if (bogon_drained) {
      mark_skipped(verdict, PipelineStage::bogon);
      verdict.location = InterceptorLocation::unknown;
    } else {
      verdict.bogon = std::move(report);
      evidence_contested = evidence_contested || verdict.bogon->contested();
      if (verdict.bogon->within_isp() && !verdict.bogon->contested()) {
        // Corroborated: bogon-addressed queries cannot leave the AS, so an
        // uncontested answer to one is in-ISP evidence no external injector
        // can forge.
        verdict.location = InterceptorLocation::isp;
      } else {
        verdict.location = evidence_contested ? InterceptorLocation::contested
                                              : InterceptorLocation::unknown;
      }
    }
  }

  if (config.detect_replication) {
    if (cancel.cancelled()) {
      mark_skipped(verdict, PipelineStage::replication);
    } else {
      obs::Span span("pipeline/replication");
      ReplicationProber prober(config.replication);
      bool drained = false;
      ReplicationReport report = prober.run(engine, &drained);
      if (drained) {
        mark_skipped(verdict, PipelineStage::replication);
      } else {
        verdict.replication = std::move(report);
      }
    }
  }

  // §4.1.2: is the interception transparent?
  if (config.run_transparency) {
    if (cancel.cancelled()) {
      mark_skipped(verdict, PipelineStage::transparency);
    } else {
      obs::Span span("pipeline/transparency");
      TransparencyTester::Config transparency_config = config.transparency;
      transparency_config.family = family;
      TransparencyTester tester(transparency_config);
      bool drained = false;
      TransparencyReport report = tester.run(engine, suspects, &drained);
      if (drained) {
        mark_skipped(verdict, PipelineStage::transparency);
      } else {
        // The whoami re-query is the suspects' second, independent
        // observation. When the target's own answer raced a different one
        // there, the interception claim rests on contested data: an
        // unlocalized verdict degrades to `contested` (a corroborated
        // cpe/isp attribution stands, as above).
        if (verdict.location == InterceptorLocation::unknown && report.any_contested())
          verdict.location = InterceptorLocation::contested;
        verdict.transparency = std::move(report);
      }
    }
  }

  fingerprint_stage(suspects);
  return finish();
}

}  // namespace dnslocate::core
