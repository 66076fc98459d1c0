// The full §4 pilot study in one run: generate the simulated probe fleet,
// measure every probe, and print all of the paper's artefacts (Table 4,
// Table 5, Figure 3, Figure 4) plus the accuracy-vs-ground-truth matrix the
// real study could not compute.
//
// Usage: atlas_pilot [scale] [--export results.jsonl] [--html report.html]
//                    [--plan plan.json] [common flags]
//   scale in (0,1]; default 1.0 = ~9,650 probes.
//   --export writes the per-probe dataset as JSONL (reload it with
//   report::run_from_jsonl for offline aggregation).
//   --html renders the whole study as one self-contained HTML page.
//   --plan measures a custom fleet described in JSON (atlas/fleet_json.h).
//   Common flags (journaling, supervision, observability) are shared with
//   custom_fleet; see examples/cli_common.h for the list.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "atlas/fleet_json.h"
#include "cli_common.h"
#include "report/aggregate.h"
#include "report/html_report.h"
#include "report/results_io.h"
#include "report/summary.h"

using namespace dnslocate;

int main(int argc, char** argv) {
  double scale = 1.0;
  const char* export_path = nullptr;
  const char* html_path = nullptr;
  const char* plan_path = nullptr;
  examples::CommonCli common;
  for (int i = 1; i < argc; ++i) {
    if (common.parse(argc, argv, i)) {
      continue;
    } else if (std::strcmp(argv[i], "--export") == 0 && i + 1 < argc) {
      export_path = argv[++i];
    } else if (std::strcmp(argv[i], "--html") == 0 && i + 1 < argc) {
      html_path = argv[++i];
    } else if (std::strcmp(argv[i], "--plan") == 0 && i + 1 < argc) {
      plan_path = argv[++i];
    } else {
      scale = std::atof(argv[i]);
    }
  }
  if (scale <= 0 || scale > 1) scale = 1.0;
  if (!common.validate()) return 1;
  const char* journal_path = common.journal;
  common.enable_observability();

  std::vector<atlas::ProbeSpec> fleet;
  if (plan_path != nullptr) {
    std::ifstream input(plan_path);
    if (!input) {
      std::fprintf(stderr, "cannot open %s\n", plan_path);
      return 1;
    }
    std::stringstream buffer;
    buffer << input.rdbuf();
    auto parsed = atlas::fleet_from_json(buffer.str());
    for (const auto& error : parsed.errors)
      std::fprintf(stderr, "plan error: %s\n", error.c_str());
    if (!parsed.ok()) return 1;
    fleet = parsed.generate();
    std::printf("custom study over %zu simulated probes (plan %s)\n", fleet.size(),
                plan_path);
  } else {
    atlas::FleetConfig config;
    config.scale = scale;
    fleet = atlas::generate_fleet(config);
    std::printf("pilot study over %zu simulated probes (scale %.2f)\n", fleet.size(), scale);
  }

  atlas::MeasurementOptions options;
  if (journal_path != nullptr) options.journal_path = journal_path;
  common.apply(options);
  // Ctrl-C / SIGTERM drains instead of killing: in-flight probes finish,
  // the journal is fsync'd, and the run stays resumable.
  options.cancel = examples::install_signal_drain();
  std::size_t last_percent = 0;
  options.progress = [&](std::size_t done, std::size_t total) {
    std::size_t percent = done * 100 / total;
    if (percent != last_percent && percent % 20 == 0) {
      std::printf("  ... %zu%%\n", percent);
      last_percent = percent;
    }
  };

  atlas::MeasurementRun run;
  if (common.resume) {
    atlas::ResumeReport report;
    run = atlas::resume_fleet(journal_path, fleet, options, &report);
    for (const auto& warning : report.warnings)
      std::fprintf(stderr, "resume: %s\n", warning.c_str());
    std::printf("resumed from %s: %zu reused, %zu re-run after failure, %zu damaged\n",
                journal_path, report.reused, report.rerun_failed, report.damaged);
  } else {
    run = atlas::run_fleet(fleet, options);
  }
  if (examples::report_signal_drain(run, journal_path)) {
    common.export_observability();
    return 130;
  }
  if (run.stopped_early())
    std::printf("stopped early after %zu failures; %zu probes not run "
                "(journal intact — rerun with --resume)\n",
                run.count_outcome(atlas::ProbeOutcome::failed) +
                    run.count_outcome(atlas::ProbeOutcome::deadline_exceeded),
                run.not_run);

  std::printf("\n--- Table 4 ---\n%s", report::render_table4(run).render().c_str());
  std::printf("\n--- Table 5 ---\n%s", report::render_table5(run).render().c_str());
  std::printf("\n--- Figure 3 (top orgs, transparency) ---\n%s",
              report::render_figure3(run).render().c_str());
  std::printf("\n--- Figure 4a (top countries, location) ---\n%s",
              report::render_figure4(report::figure4_by_country(run)).render().c_str());
  std::printf("\n--- Figure 4b (top orgs, location) ---\n%s",
              report::render_figure4(report::figure4_by_org(run)).render().c_str());

  if (html_path != nullptr) {
    std::ofstream out(html_path);
    out << report::html_report(run);
    std::printf("\nwrote HTML report to %s\n", html_path);
  }
  if (export_path != nullptr) {
    std::ofstream out(export_path);
    out << report::run_to_jsonl(run);
    std::printf("\nwrote %zu probe records to %s\n", run.records.size(), export_path);
  }

  auto matrix = report::accuracy_matrix(run);
  std::printf("\n--- technique vs ground truth ---\n%s",
              report::render_confusion(matrix).render().c_str());
  std::printf("accuracy: %.4f\n", matrix.accuracy());

  auto census = report::run_census(run);
  std::printf("\n--- run health ---\n%s", report::render_run_census(census).render().c_str());
  if (!census.slowest.empty()) {
    std::printf("slowest probes:\n");
    for (const auto& note : census.slowest)
      std::printf("  probe %u (%s): %.1f ms\n", note.probe_id, note.org.c_str(),
                  static_cast<double>(note.elapsed.count()) / 1000.0);
  }
  for (const auto& note : census.failures)
    std::printf("failure: probe %u (%s) %s: %s\n", note.probe_id, note.org.c_str(),
                std::string(to_string(note.outcome)).c_str(), note.error.c_str());

  std::printf("\n--- summary ---\n%s\n", report::run_summary(run).c_str());
  common.export_observability();
  return 0;
}
