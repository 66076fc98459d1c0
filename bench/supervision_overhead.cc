// Supervision overhead: what does crash tolerance cost a healthy campaign?
//
// The supervised fleet runner wraps every probe in a try/catch, a deadline
// cancellation token, and (optionally) a checksummed journal append. On a
// fleet where nothing crashes this machinery must be near-free.
//
// Methodology: shared runners are noisy enough that comparing two
// independent minima cannot resolve a few percent — the quiet-machine floor
// itself drifts more than that between runs. Instead the check times
// back-to-back bare/supervised pairs (order alternating to cancel drift),
// computes the overhead ratio within each pair, and takes the median across
// pairs: spikes hit individual pairs hard but move the median very little.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "report/aggregate.h"

using namespace dnslocate;

namespace {

using bench::median;
using bench::run_ms;
using bench::same_matrix;

}  // namespace

int main() {
  constexpr double kScale = 0.25;
  constexpr int kPairs = 11;

  bench::heading("Supervision overhead: bare vs supervised fleet execution");

  atlas::FleetConfig config;
  config.scale = kScale;
  auto fleet = atlas::generate_fleet(config);
  std::printf("[fleet] %zu probes, scale=%.2f, median of %d alternating pairs\n",
              fleet.size(), kScale, kPairs);

  atlas::MeasurementOptions bare;
  bare.shards = 0;

  const std::string journal_path = "/tmp/dnslocate_supervision_overhead.journal";
  atlas::MeasurementOptions supervised;
  supervised.shards = 0;
  supervised.probe_deadline = std::chrono::minutes(10);  // armed, never fires
  supervised.journal_path = journal_path;

  atlas::MeasurementRun bare_run, supervised_run;
  std::vector<double> ratios, bare_times, supervised_times;
  for (int pair = 0; pair < kPairs; ++pair) {
    double bare_ms = 0.0, supervised_ms = 0.0;
    if (pair % 2 == 0) {
      bare_ms = run_ms(fleet, bare, &bare_run);
      supervised_ms = run_ms(fleet, supervised, &supervised_run);
    } else {
      supervised_ms = run_ms(fleet, supervised, &supervised_run);
      bare_ms = run_ms(fleet, bare, &bare_run);
    }
    std::remove(journal_path.c_str());
    bare_times.push_back(bare_ms);
    supervised_times.push_back(supervised_ms);
    ratios.push_back((supervised_ms - bare_ms) / bare_ms);
  }

  double overhead = median(ratios);
  std::printf("\nbare:       %.1f ms (median of %d)\n", median(bare_times), kPairs);
  std::printf("supervised: %.1f ms (median of %d; deadline armed + journal)\n",
              median(supervised_times), kPairs);
  std::printf("overhead:   %+.2f%% (median of per-pair ratios)\n", overhead * 100.0);

  bench::heading("checks");

  // 1. Supervision must not change a single verdict on a healthy fleet.
  bool identical =
      same_matrix(report::accuracy_matrix(bare_run), report::accuracy_matrix(supervised_run));
  std::printf("identical accuracy matrix with supervision on: %s\n",
              identical ? "pass" : "FAIL");

  // 2. Every probe still completed ok (the deadline never fired).
  bool all_ok = supervised_run.count_outcome(atlas::ProbeOutcome::ok) ==
                    supervised_run.records.size() &&
                !supervised_run.stopped_early();
  std::printf("all probes ok under supervision: %s\n", all_ok ? "pass" : "FAIL");

  // 3. The machinery costs less than 5% wall clock.
  bool cheap = overhead < 0.05;
  std::printf("supervision overhead under 5%%: %s\n", cheap ? "pass" : "FAIL");

  auto census = report::run_census(supervised_run);
  std::printf("\n%s", report::render_run_census(census).render().c_str());

  bool ok = identical && all_ok && cheap;
  std::printf("\noverall: %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}
