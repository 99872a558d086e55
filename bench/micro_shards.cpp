// micro_shards — campaign-engine cohort-scaling sweep.
//
// Runs the same Scenario across workers ∈ {1,2,4,8,16,ncores} for two
// partition series:
//   * carrier_capped — cohorts=1, the historical one-shard-per-carrier
//     partition, whose speedup ceiling is the largest carrier's share of
//     the fleet (~2.5x for the six study carriers);
//   * cohort — cohorts auto-sized from the worker count (CURTAIN_COHORTS
//     semantics), which splits carriers into device cohorts so the pool
//     can keep every worker busy.
//
// For each (series, workers) point it emits one bench_record JSON line
// carrying campaign_wall_ms, the campaign phase as measured on this host.
// Past the host's core count threads timeslice, so the walls flatten
// there (the headline prints the host's core count). Why a run did or
// did not scale (utilization, imbalance, queue waits) is the flight
// recorder's job (CURTAIN_PROFILE_OUT, perfbench's exec.* metrics).
//
// CURTAIN_SCALE (default 0.1 here — enough campaign work for scheduling
// to dominate setup) and CURTAIN_SEED apply as everywhere else;
// CURTAIN_SHARDS/CURTAIN_COHORTS are ignored since the sweep sets both.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/study.h"
#include "util/flags.h"

namespace {

struct RunOutcome {
  double wall_ms = 0.0;       ///< measured campaign phase
  size_t experiments = 0;
  size_t shards = 0;
  int cohorts = 1;            ///< cohorts per carrier the engine resolved
};

RunOutcome run_campaign(const curtain::core::Scenario& base, int cohorts,
                        int workers) {
  curtain::core::Study study(curtain::core::Scenario(base)
                                 .with_cohorts(cohorts)
                                 .with_shards(workers));
  study.run();
  RunOutcome out;
  out.experiments = study.records().experiment_count();
  out.shards = study.shard_count();
  for (const auto& stat : study.shard_stats()) {
    out.cohorts = std::max(out.cohorts, stat.cohort_index + 1);
  }
  for (const auto& phase : study.report().phases) {
    if (phase.name == "campaign") out.wall_ms = phase.wall_ms;
  }
  return out;
}

}  // namespace

int main() {
  curtain::core::Scenario base = curtain::core::Scenario::from_env();
  if (!curtain::util::campaign_scale_set()) {
    base.with_scale(0.1);
  }
  std::printf("================================================================\n");
  std::printf("micro_shards — cohort scaling sweep (scale=%.3f seed=%llu)\n",
              base.scale, static_cast<unsigned long long>(base.seed));
  std::printf("================================================================\n");

  // 16 extends past 8 into the regime the carrier-capped partition can
  // never reach (its speedup ceiling is the largest carrier's busy
  // share, ~38% of the fleet, regardless of worker count).
  std::vector<int> sweep = {1, 2, 4, 8, 16};
  const int ncores =
      static_cast<int>(std::thread::hardware_concurrency());
  if (ncores >= 1) sweep.push_back(ncores);
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());

  size_t reference_experiments = 0;
  std::map<std::pair<std::string, int>, double> measured;

  for (const std::string series : {"carrier_capped", "cohort"}) {
    for (const int workers : sweep) {
      // carrier_capped pins cohorts=1; cohort lets the engine auto-size
      // the partition from the worker count (CURTAIN_COHORTS=0).
      const int cohorts_knob = series == "carrier_capped" ? 1 : 0;
      const RunOutcome run = run_campaign(base, cohorts_knob, workers);

      if (reference_experiments == 0) reference_experiments = run.experiments;
      if (run.experiments != reference_experiments) {
        std::printf("  DETERMINISM VIOLATION: %s workers=%d produced %zu "
                    "experiments, reference produced %zu\n",
                    series.c_str(), workers, run.experiments,
                    reference_experiments);
        return 1;
      }
      measured[{series, workers}] = run.wall_ms;

      std::printf(
          "{\"bench_record\":\"cohort_scaling\",\"series\":\"%s\","
          "\"workers\":%d,\"cohorts\":%d,\"shards\":%zu,"
          "\"campaign_wall_ms\":%.1f,\"experiments\":%zu}\n",
          series.c_str(), workers, run.cohorts, run.shards, run.wall_ms,
          run.experiments);
    }
  }

  // Headline: measured campaign walls of both partitions at every sweep
  // point, and each one's speedup over its own 1-worker wall.
  for (const int workers : sweep) {
    const double capped = measured.at({"carrier_capped", workers});
    const double cohort = measured.at({"cohort", workers});
    std::printf("  workers=%d measured: carrier_capped %.0f ms (%.2fx), "
                "cohort %.0f ms (%.2fx)\n",
                workers, capped, measured.at({"carrier_capped", 1}) / capped,
                cohort, measured.at({"cohort", 1}) / cohort);
  }
  std::printf("  (speedups are over each series' 1-worker wall; this host "
              "has %d core%s)\n",
              ncores, ncores == 1 ? "" : "s");
  return 0;
}
