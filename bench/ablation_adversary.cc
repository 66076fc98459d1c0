// Ablation A7 (ours): localization accuracy under adversarial interceptors.
//
// The adversary zoo (simnet/adversary.h) layers spoofing injectors and DPI
// middleboxes onto every probe world in the fleet, and this harness proves
// the arbitration contract end-to-end:
//
//   - real interceptors stay localized: CPE attributions rest on the
//     CPE-addressed version.bind match and ISP attributions on uncontested
//     bogon answers, both out of a transit-core injector's reach, so
//     localization accuracy over intercepted-truth probes holds within two
//     points of the adversary-free baseline;
//   - clean paths are never fabricated into interceptions: the
//     truth-not-intercepted row of the confusion matrix may only ever hold
//     `not_intercepted` or `contested` — never cpe/isp/unknown;
//   - contested verdicts appear only on genuine conflict (telemetry
//     records conflicting accepted answers) and are never silently
//     resolved: every probe's verdict is its adversary-free location or
//     `contested`, nothing else;
//   - the whole sweep replays byte-identically at the fixed fleet seed.
//
// Usage: ablation_adversary [--smoke] [--json PATH]
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/describe.h"
#include "jsonio/json.h"
#include "report/aggregate.h"

using namespace dnslocate;

namespace {

struct Personality {
  const char* name;
  atlas::AdversaryConfig adversary;
  /// Vendor string the active fingerprint stage should pin on DPI runs.
  const char* expected_vendor = "";
};

std::vector<Personality> build_zoo() {
  std::vector<Personality> zoo;
  zoo.push_back({"baseline", {}});
  for (auto lead : {std::chrono::microseconds(100), std::chrono::microseconds(5000),
                    std::chrono::microseconds(20000)}) {
    atlas::AdversaryConfig a;
    simnet::SpooferConfig spoofer;
    spoofer.injection_delay = lead;
    a.transit_spoofer = spoofer;
    std::string name = "onpath_spoofer_lead" + std::to_string(lead.count()) + "us";
    static std::vector<std::string> names;  // keep the c_str()s alive
    names.push_back(name);
    zoo.push_back({names.back().c_str(), a});
  }
  {
    atlas::AdversaryConfig a;
    simnet::SpooferConfig spoofer;
    spoofer.on_path = false;
    a.transit_spoofer = spoofer;
    zoo.push_back({"offpath_spoofer", a});
  }
  {
    atlas::AdversaryConfig a;
    a.isp_dpi = simnet::dpi_foldix();
    zoo.push_back({"dpi_foldix", a, "foldix"});
  }
  {
    atlas::AdversaryConfig a;
    a.isp_dpi = simnet::dpi_optstrip();
    zoo.push_back({"dpi_optstrip", a, "optstrip"});
  }
  {
    atlas::AdversaryConfig a;
    a.isp_dpi = simnet::dpi_truncor();
    zoo.push_back({"dpi_truncor", a, "truncor"});
  }
  {
    atlas::AdversaryConfig a;
    a.cpe_dpi = simnet::dpi_omnibox();
    zoo.push_back({"dpi_omnibox_cpe", a, "omnibox"});
  }
  return zoo;
}

/// The full evidence trail minus wall-clock artifacts — the byte-identical
/// replay gate compares these (same signature fleet_scale gates shards on).
std::string verdict_signature(const core::ProbeVerdict& verdict) {
  std::string signature = core::describe(verdict);
  signature += "\nlocation=" + std::string(core::to_string(verdict.location));
  signature += " skipped=" + std::to_string(verdict.skipped_stages);
  signature += " conflicts=" + std::to_string(verdict.telemetry.conflicts);
  signature += " spoof=" + std::to_string(verdict.telemetry.spoof_suspected);
  signature += " recased=" + std::to_string(verdict.telemetry.case_mismatches);
  return signature;
}

std::map<std::uint32_t, std::string> signatures_of(const atlas::MeasurementRun& run) {
  std::map<std::uint32_t, std::string> out;
  for (const auto& record : run.records) out[record.probe_id] = verdict_signature(record.verdict);
  return out;
}

struct SweepPoint {
  std::string name;
  report::ConfusionMatrix matrix;
  // Localization over intercepted-truth probes (where a spoofer would have
  // to *move* an attribution to win).
  std::size_t intercepted_truth = 0;
  std::size_t strict_correct = 0;    // measured == expected
  std::size_t adjusted_correct = 0;  // + honest contested degradations (below)
  // Fleet-wide arbitration tallies.
  std::size_t contested = 0;                  // verdicts at location contested
  std::size_t contested_without_conflict = 0; // would be a fabricated refusal
  std::size_t moved_or_fabricated = 0;        // location not in {baseline, contested}
  std::uint64_t conflicts = 0;
  std::uint64_t spoof_suspected = 0;
  std::uint64_t case_mismatches = 0;
  /// Probes whose active fingerprint pinned the personality's vendor name.
  std::size_t vendor_identified = 0;

  [[nodiscard]] double strict_accuracy() const {
    return intercepted_truth == 0
               ? 1.0
               : static_cast<double>(strict_correct) / static_cast<double>(intercepted_truth);
  }
  [[nodiscard]] double adjusted_accuracy() const {
    return intercepted_truth == 0
               ? 1.0
               : static_cast<double>(adjusted_correct) / static_cast<double>(intercepted_truth);
  }
};

atlas::MeasurementRun run_zoo_config(const atlas::AdversaryConfig& adversary, double scale) {
  atlas::FleetConfig config;
  config.scale = scale;
  config.adversary = adversary;
  // Every run (baseline included, for comparability) actively fingerprints:
  // a DPI box that never alters answer content is invisible to detection,
  // so this is the only stage that can name it.
  config.run_fingerprint = true;
  auto fleet = atlas::generate_fleet(config);
  atlas::MeasurementOptions options;
  options.shards = 0;  // probes are independent; use every core
  return atlas::run_fleet(fleet, options);
}

SweepPoint summarize(const Personality& personality, const atlas::MeasurementRun& run,
                     const std::map<std::uint32_t, core::InterceptorLocation>& baseline) {
  SweepPoint point;
  point.name = personality.name;
  point.matrix = report::accuracy_matrix(run);
  for (const auto& record : run.records) {
    const auto measured = record.verdict.location;
    const auto expected = record.truth.expected;
    const auto& telemetry = record.verdict.telemetry;
    point.conflicts += telemetry.conflicts;
    point.spoof_suspected += telemetry.spoof_suspected;
    point.case_mismatches += telemetry.case_mismatches;
    if (personality.expected_vendor[0] != '\0' && record.verdict.fingerprint &&
        record.verdict.fingerprint->vendor == personality.expected_vendor)
      ++point.vendor_identified;

    if (measured == core::InterceptorLocation::contested) {
      ++point.contested;
      if (telemetry.conflicts == 0) ++point.contested_without_conflict;
    }
    auto it = baseline.find(record.probe_id);
    if (it != baseline.end() && measured != it->second &&
        measured != core::InterceptorLocation::contested)
      ++point.moved_or_fabricated;

    if (expected == core::InterceptorLocation::not_intercepted) continue;
    ++point.intercepted_truth;
    if (measured == expected) {
      ++point.strict_correct;
      ++point.adjusted_correct;
    } else if (measured == core::InterceptorLocation::contested &&
               telemetry.conflicts > 0 &&
               expected == core::InterceptorLocation::unknown) {
      // An interceptor the technique could never place better than
      // "unknown" now has a spoofer racing it: refusing the verdict as
      // contested removes confidence without inventing a locus. Counted as
      // honest degradation — but only for truth-unknown probes; a
      // contested CPE or ISP attribution still counts against accuracy.
      ++point.adjusted_correct;
    }
  }
  return point;
}

/// Clean probes (truth not intercepted) may measure not_intercepted or
/// contested — anything else is a fabricated interception.
bool row0_clean(const report::ConfusionMatrix& matrix) {
  constexpr auto kCpe = static_cast<std::size_t>(core::InterceptorLocation::cpe);
  constexpr auto kIsp = static_cast<std::size_t>(core::InterceptorLocation::isp);
  constexpr auto kUnknown = static_cast<std::size_t>(core::InterceptorLocation::unknown);
  return matrix.cells[0][kCpe] == 0 && matrix.cells[0][kIsp] == 0 &&
         matrix.cells[0][kUnknown] == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  const double scale = smoke ? 0.05 : 0.25;

  bench::heading("Ablation A7: localization accuracy under the adversary zoo");

  auto zoo = build_zoo();
  std::vector<SweepPoint> sweep;
  std::map<std::uint32_t, core::InterceptorLocation> baseline_locations;
  atlas::MeasurementRun onpath_run;  // kept for the replay gate

  for (const auto& personality : zoo) {
    std::printf("[run] %s (scale %.2f)\n", personality.name, scale);
    auto run = run_zoo_config(personality.adversary, scale);
    if (baseline_locations.empty())
      for (const auto& record : run.records)
        baseline_locations[record.probe_id] = record.verdict.location;
    sweep.push_back(summarize(personality, run, baseline_locations));
    if (std::strncmp(personality.name, "onpath_spoofer_lead100", 22) == 0)
      onpath_run = std::move(run);
  }

  std::printf("\n%-26s %-9s %-9s %-10s %-10s %-10s %-8s %-8s\n", "personality", "strict",
              "adjusted", "contested", "conflicts", "spoofsusp", "recased", "vendor");
  for (const SweepPoint& point : sweep)
    std::printf("%-26s %-9.4f %-9.4f %-10zu %-10" PRIu64 " %-10" PRIu64 " %-8" PRIu64
                " %-8zu\n",
                point.name.c_str(), point.strict_accuracy(), point.adjusted_accuracy(),
                point.contested, point.conflicts, point.spoof_suspected,
                point.case_mismatches, point.vendor_identified);

  const SweepPoint& baseline = sweep.front();

  bench::heading("checks");

  // 1. Byte-identical replay of the hardest configuration at the fixed
  //    fleet seed.
  atlas::AdversaryConfig onpath;
  {
    simnet::SpooferConfig spoofer;
    spoofer.injection_delay = std::chrono::microseconds(100);
    onpath.transit_spoofer = spoofer;
  }
  auto replay = run_zoo_config(onpath, scale);
  bool deterministic = signatures_of(replay) == signatures_of(onpath_run) &&
                       bench::same_matrix(report::accuracy_matrix(replay),
                                          report::accuracy_matrix(onpath_run));
  std::printf("on-path sweep replays byte-identically at seed 2021: %s\n",
              deterministic ? "pass" : "FAIL");

  // 2. The adversary-free fleet never emits contested verdicts.
  bool baseline_clean = baseline.contested == 0 && baseline.conflicts == 0;
  std::printf("adversary-free baseline has zero contested verdicts: %s\n",
              baseline_clean ? "pass" : "FAIL");

  // 3-6. Per-personality arbitration gates.
  bool resilient = true;
  bool contested_honest = true;
  bool never_fabricated = true;
  bool rows_clean = true;
  for (const SweepPoint& point : sweep) {
    if (point.adjusted_accuracy() < baseline.strict_accuracy() - 0.02) {
      resilient = false;
      std::printf("  %s: accuracy %.4f fell more than 2 points below baseline %.4f\n",
                  point.name.c_str(), point.adjusted_accuracy(), baseline.strict_accuracy());
    }
    if (point.contested_without_conflict != 0) {
      contested_honest = false;
      std::printf("  %s: %zu contested verdict(s) without an observed conflict\n",
                  point.name.c_str(), point.contested_without_conflict);
    }
    if (point.moved_or_fabricated != 0) {
      never_fabricated = false;
      std::printf("  %s: %zu verdict(s) moved to a location the baseline never had\n",
                  point.name.c_str(), point.moved_or_fabricated);
    }
    if (!row0_clean(point.matrix)) {
      rows_clean = false;
      std::printf("  %s: clean-truth probes measured cpe/isp/unknown\n", point.name.c_str());
    }
  }
  std::printf("localization holds within 2 points under every adversary: %s\n",
              resilient ? "pass" : "FAIL");
  std::printf("contested only on genuine conflict (never fabricated refusal): %s\n",
              contested_honest ? "pass" : "FAIL");
  std::printf("no verdict moves anywhere but contested: %s\n",
              never_fabricated ? "pass" : "FAIL");
  std::printf("clean-truth probes only measure not_intercepted/contested: %s\n",
              rows_clean ? "pass" : "FAIL");

  // 7. The zoo actually bites: the on-path spoofer must contest something,
  //    the off-path spoofer must be caught as spoof-suspected, and every
  //    DPI personality must be pinned by name on some probes' active
  //    fingerprints.
  bool adversaries_observed = true;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& point = sweep[i];
    if (point.name.rfind("onpath_spoofer", 0) == 0 && point.conflicts == 0) {
      adversaries_observed = false;
      std::printf("  %s: no conflicts observed\n", point.name.c_str());
    }
    if (point.name == "offpath_spoofer" && point.spoof_suspected == 0) {
      adversaries_observed = false;
      std::printf("  %s: no spoof-suspected datagrams observed\n", point.name.c_str());
    }
    if (zoo[i].expected_vendor[0] != '\0' && point.vendor_identified == 0) {
      adversaries_observed = false;
      std::printf("  %s: fingerprint never named vendor %s\n", point.name.c_str(),
                  zoo[i].expected_vendor);
    }
  }
  std::printf("every adversary leaves its expected evidence trail: %s\n",
              adversaries_observed ? "pass" : "FAIL");

  if (json_path != nullptr) {
    jsonio::Object out;
    out["bench"] = std::string("ablation_adversary");
    out["smoke"] = smoke;
    out["scale"] = scale;
    out["fleet_seed"] = static_cast<std::uint64_t>(2021);
    jsonio::Array points;
    for (const SweepPoint& point : sweep) {
      jsonio::Object p;
      p["personality"] = point.name;
      p["intercepted_truth"] = static_cast<std::uint64_t>(point.intercepted_truth);
      p["strict_accuracy"] = point.strict_accuracy();
      p["adjusted_accuracy"] = point.adjusted_accuracy();
      p["contested"] = static_cast<std::uint64_t>(point.contested);
      p["contested_without_conflict"] =
          static_cast<std::uint64_t>(point.contested_without_conflict);
      p["conflicts"] = point.conflicts;
      p["spoof_suspected"] = point.spoof_suspected;
      p["case_mismatches"] = point.case_mismatches;
      p["vendor_identified"] = static_cast<std::uint64_t>(point.vendor_identified);
      points.push_back(jsonio::Value(std::move(p)));
    }
    out["points"] = jsonio::Value(std::move(points));
    out["check_deterministic_replay"] = deterministic;
    out["check_baseline_uncontested"] = baseline_clean;
    out["check_accuracy_within_2pts"] = resilient;
    out["check_contested_only_on_conflict"] = contested_honest;
    out["check_never_fabricated"] = never_fabricated;
    out["check_clean_rows"] = rows_clean;
    out["check_adversaries_observed"] = adversaries_observed;
    std::ofstream file(json_path);
    file << jsonio::Value(std::move(out)).dump() << "\n";
    std::printf("wrote %s\n", json_path);
  }

  bool ok = deterministic && baseline_clean && resilient && contested_honest &&
            never_fabricated && rows_clean && adversaries_observed;
  std::printf("\noverall: %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}
