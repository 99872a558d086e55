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
// with two wall-clock figures:
//   * campaign_wall_ms — the campaign phase as actually measured on this
//     host. On boxes with fewer cores than workers this shows little or
//     no speedup: threads timeslice one core.
//   * modeled_wall_ms — the makespan of the engine's deterministic pull
//     queue (workers take the next shard in index order as they free up)
//     over per-shard busy times measured in an *uncontended* serial run
//     of the same partition. Shards share no mutable state, so on a host
//     with >= `workers` idle cores the measured wall converges to this
//     model; it is the honest cross-host scaling figure.
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

using curtain::exec::ShardStat;

struct RunOutcome {
  double wall_ms = 0.0;       ///< measured campaign phase
  size_t experiments = 0;
  size_t shards = 0;
  int cohorts = 1;            ///< cohorts per carrier the engine resolved
  std::vector<ShardStat> stats;
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
  out.stats = study.shard_stats();
  for (const auto& stat : out.stats) {
    out.cohorts = std::max(out.cohorts, stat.cohort_index + 1);
  }
  for (const auto& phase : study.report().phases) {
    if (phase.name == "campaign") out.wall_ms = phase.wall_ms;
  }
  return out;
}

/// Makespan of the engine's pull queue: shards are taken in index order
/// by whichever worker frees up first — exactly greedy list scheduling.
double makespan_ms(const std::vector<ShardStat>& stats, int workers) {
  std::vector<double> free_at(static_cast<size_t>(workers), 0.0);
  for (const auto& stat : stats) {
    *std::min_element(free_at.begin(), free_at.end()) += stat.busy_ms;
  }
  return *std::max_element(free_at.begin(), free_at.end());
}

double serial_ms(const std::vector<ShardStat>& stats) {
  double total = 0.0;
  for (const auto& stat : stats) total += stat.busy_ms;
  return total;
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
  // modeled_wall_ms needs uncontended per-shard busy times: one serial
  // (workers=1) run per distinct partition, cached by cohort count.
  std::map<int, RunOutcome> serial_runs;
  std::map<std::pair<std::string, int>, double> modeled;

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

      auto clean = serial_runs.find(run.cohorts);
      if (clean == serial_runs.end()) {
        clean = serial_runs
                    .emplace(run.cohorts,
                             workers == 1 ? run
                                          : run_campaign(base, run.cohorts, 1))
                    .first;
      }
      const double model = makespan_ms(clean->second.stats, workers);
      modeled[{series, workers}] = model;

      std::printf(
          "{\"bench_record\":\"cohort_scaling\",\"series\":\"%s\","
          "\"workers\":%d,\"cohorts\":%d,\"shards\":%zu,"
          "\"campaign_wall_ms\":%.1f,\"modeled_wall_ms\":%.1f,"
          "\"serial_ms\":%.1f,\"experiments\":%zu}\n",
          series.c_str(), workers, run.cohorts, run.shards, run.wall_ms,
          model, serial_ms(clean->second.stats), run.experiments);
    }
  }

  // Headline: modeled speedup of the cohort partition over the
  // carrier-capped baseline at the widest sweep point.
  const int widest = sweep.back();
  for (const int workers : sweep) {
    const double capped = modeled.at({"carrier_capped", workers});
    const double cohort = modeled.at({"cohort", workers});
    std::printf("  workers=%d modeled: carrier_capped %.0f ms, cohort %.0f "
                "ms (%.2fx)\n",
                workers, capped, cohort, capped / cohort);
  }
  std::printf("  (modeled = pull-queue makespan over uncontended per-shard "
              "times; this host has %d core%s)\n",
              ncores, ncores == 1 ? "" : "s");
  const double gain = modeled.at({"carrier_capped", widest}) /
                      modeled.at({"cohort", widest});
  std::printf("  cohort partition gain at %d workers: %.2fx\n", widest, gain);
  return 0;
}
