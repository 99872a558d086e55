// curtain::obs — campaign flight recorder (execution-level profiler).
//
// The span tracer (trace.h) explains where *simulated* time goes inside
// one resolution; this layer explains where *real* time and memory go
// when the campaign engine runs: which worker ran which shard when, how
// long shards waited in the pull queue, what the merge phases cost, and
// how RSS moved. It is the diagnostic substrate for the ROADMAP's
// scaling work (why does the 16-worker gain stop at 5.33×? what is the
// RSS ceiling made of?).
//
// Design (DESIGN.md §14):
//   * Always-on hooks, pay-per-use cost: call sites test enabled() — one
//     relaxed atomic load — and only then read the clock. With
//     CURTAIN_PROFILE_OUT unset the campaign pays a few branches per
//     *shard*, never per event.
//   * Per-thread slabs: each worker lane appends fixed-size POD
//     ExecRecords to its own pre-sized slab; no locks, no allocation in
//     steady state, no cross-thread writes. Lane 0 belongs to the
//     coordinating thread (world build, merge phases).
//   * Deterministic merge: dump() concatenates the slabs and stable-sorts
//     by (start, lane), so the merged timeline is a pure function of the
//     recorded timestamps — not of merge order.
//   * Fenced from results: timestamps are wall-clock (sanctioned via the
//     linter's `profiler-wallclock` waiver) and must never feed simulated
//     state. The recorder writes no metric until after the campaign's
//     deterministic merge completed, and exports are byte-identical with
//     the recorder on or off (tests/shard_determinism_test).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/report.h"

namespace curtain::obs {

/// One recorded event, fixed-size POD so slab appends never allocate
/// per-field. `start_us`/`end_us` are monotonic microseconds since the
/// recorder was enabled.
struct ExecRecord {
  enum class Kind : uint8_t {
    kShardSpan,  ///< one shard's execution on a worker (pickup → finish)
    kPhaseSpan,  ///< a named engine/study phase (world build, merges)
    kCounter,    ///< a sampled value (RSS, queue depth)
  };

  Kind kind = Kind::kShardSpan;
  uint16_t worker = 0;        ///< worker lane; 0 = coordinating thread
  int32_t shard_index = -1;   ///< kShardSpan: index into Dump::shards
  int64_t start_us = 0;
  int64_t end_us = 0;         ///< kCounter: equals start_us
  int64_t queue_wait_us = 0;  ///< kShardSpan: pickup − queue-open
  uint64_t bytes = 0;         ///< kShardSpan: shard dataset heap bytes
  double value = 0.0;         ///< kCounter: the sampled value
  char name[24] = {};         ///< kPhaseSpan/kCounter: NUL-terminated name
};
static_assert(std::is_trivially_copyable_v<ExecRecord>,
              "slab records must stay POD");

class FlightRecorder {
 public:
  /// Identity of one shard, captured at begin_run() so exporters can
  /// label spans without touching engine internals.
  struct ShardMeta {
    std::string label;  ///< "<carrier>/cohort<k>"
    int carrier_index = 0;
    int cohort_index = 0;
    uint64_t devices = 0;
  };

  /// The deterministically merged timeline of one run.
  struct Dump {
    size_t worker_lanes = 0;  ///< worker lanes are 1..worker_lanes
    std::vector<ShardMeta> shards;
    std::vector<ExecRecord> records;  ///< sorted by (start_us, worker)
  };

  /// The process-wide recorder. One profiled study at a time: the study
  /// that enabled it owns the run until it disables it again.
  static FlightRecorder& instance();

  /// Arms the hooks and sets the timestamp epoch. Creates lane 0.
  void enable();
  /// Disarms the hooks; recorded slabs survive until clear().
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Monotonic microseconds since enable(). Only meaningful (and only
  /// worth calling) while enabled.
  int64_t now_us() const;

  /// Coordinating thread, before the worker pool starts: sizes the slabs
  /// for lanes 0..worker_lanes and records the shard table. Lane 0
  /// records from before the run (world build) are kept.
  void begin_run(size_t worker_lanes, std::vector<ShardMeta> shards);

  /// Worker hook, once per shard: records the shard span plus queue-depth
  /// and RSS counter samples at finish. Only lane `worker_lane` may call
  /// this with that lane value (slabs are single-writer).
  void record_shard(uint16_t worker_lane, int32_t shard_index,
                    int64_t pickup_us, int64_t finish_us,
                    int64_t queue_wait_us, double queue_depth,
                    size_t rss_bytes, size_t dataset_bytes);

  /// Named span on one lane (merge phases, world build, vantage sweep).
  void record_phase(uint16_t worker_lane, const char* name, int64_t start_us,
                    int64_t end_us);

  /// Named counter sample on one lane.
  void record_counter(uint16_t worker_lane, const char* name, int64_t at_us,
                      double value);

  /// Merges every slab into one timeline. Call only after the worker
  /// pool joined (single-writer slabs have no readers mid-run).
  Dump dump() const;

  /// Drops all slabs and shard metadata (keeps the enabled state).
  void clear();

 private:
  FlightRecorder() = default;

  struct Slab {
    std::vector<ExecRecord> records;
  };
  ExecRecord* append(uint16_t worker_lane);

  std::atomic<bool> enabled_{false};
  int64_t epoch_ns_ = 0;
  std::vector<std::unique_ptr<Slab>> slabs_;  ///< index = worker lane
  std::vector<ShardMeta> shards_;
};

/// The stall watchdog flags a shard whose wall per device exceeds this
/// multiple of the non-empty shards' median.
inline constexpr double kStallFactor = 4.0;

/// Condenses a dump into the RunReport profile section: per-shard wall
/// and queue-wait, queue-wait p50/p95, worker utilization %, the stall
/// watchdog (wall per device over kStallFactor × the non-empty shards'
/// median) and peak RSS (sampled by the caller via read_peak_rss_bytes()).
RunReport::Profile build_profile(const FlightRecorder::Dump& dump,
                                 size_t peak_rss_bytes);

}  // namespace curtain::obs
