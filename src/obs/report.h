// curtain::obs — end-of-run report.
//
// What Study::run() fills and study.summary() renders: wall-clock per
// campaign phase, the headline dataset totals, the execution
// configuration that produced them (so committed reports are
// self-describing), and — when the flight recorder ran — an execution
// profile (per-shard wall, queue-wait percentiles, worker utilization,
// peak RSS, stall watchdog).
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace curtain::obs {

struct RunReport {
  struct Phase {
    std::string name;
    double wall_ms = 0.0;
  };

  /// The execution configuration that produced this report. Always
  /// filled by Study::run(): a report without its worker/cohort/shard
  /// counts cannot be compared across hosts or commits.
  struct Config {
    int workers = 0;    ///< worker-pool size (resolved CURTAIN_SHARDS)
    int cohorts = 0;    ///< cohorts per carrier (resolved CURTAIN_COHORTS)
    size_t shards = 0;  ///< carriers × cohorts
    /// Every CURTAIN_* knob with its resolved value, `--help`-style
    /// ("NAME=value (kind, default D, range R) — help"), from
    /// util::describe_flags(). One line per flag, declaration order.
    std::vector<std::string> flags;
    bool set() const { return workers > 0; }
  };

  /// One shard's execution record in the profile, in shard-index order.
  struct ShardProfile {
    std::string label;          ///< "<carrier>/cohort<k>"
    int worker = 0;             ///< worker lane that ran it (1-based)
    double wall_ms = 0.0;       ///< pickup → finish
    double queue_wait_ms = 0.0; ///< queue-open → pickup
    bool stalled = false;       ///< flagged by the stall watchdog
  };

  /// Flight-recorder summary; enabled only when CURTAIN_PROFILE_OUT was
  /// set (see obs/flight_recorder.h and build_profile()).
  struct Profile {
    bool enabled = false;
    double queue_wait_p50_ms = 0.0;
    double queue_wait_p95_ms = 0.0;
    /// Σ shard busy time / (workers × campaign makespan), in percent.
    double worker_utilization_pct = 0.0;
    double peak_rss_mb = 0.0;
    double median_shard_wall_ms = 0.0;
    double stall_factor = 0.0;  ///< watchdog threshold multiplier (k)
    std::vector<ShardProfile> shards;

    /// Labels of shards the watchdog flagged (wall/device > k × median).
    std::vector<std::string> stalled_labels() const;
  };

  std::vector<Phase> phases;
  /// Headline totals (records produced, key counters) in insertion order.
  std::vector<std::pair<std::string, double>> totals;
  Config config;
  Profile profile;

  void add_phase(std::string name, double wall_ms);
  void add_total(std::string name, double value);
  double wall_ms_total() const;
  bool empty() const { return phases.empty() && totals.empty(); }

  /// Compact one-line suffix for Study::summary():
  /// " | wall_ms: campaign=812 vantage_sweep=31".
  std::string summary_suffix() const;
  /// Full multi-line human rendering.
  std::string render() const;
};

}  // namespace curtain::obs
