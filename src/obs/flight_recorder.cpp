#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

namespace curtain::obs {
namespace {

// The recorder is the tree's one sanctioned wall-clock consumer outside
// phase timing: its timestamps label a profiling timeline and never feed
// simulated state (DESIGN.md §14), hence the dedicated waiver category.

int64_t monotonic_ns() {
  const auto now = std::chrono::steady_clock::now();  // lint: profiler-wallclock
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

void copy_name(ExecRecord& record, const char* name) {
  std::strncpy(record.name, name, sizeof(record.name) - 1);
  record.name[sizeof(record.name) - 1] = '\0';
}

/// Nearest-rank percentile of an unsorted sample (copies and sorts).
double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;  // lint: shared-static (process-wide profiler; internally mutex-guarded)
  return recorder;
}

void FlightRecorder::enable() {
  if (enabled()) return;
  epoch_ns_ = monotonic_ns();
  if (slabs_.empty()) slabs_.push_back(std::make_unique<Slab>());
  enabled_.store(true, std::memory_order_relaxed);
}

void FlightRecorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

int64_t FlightRecorder::now_us() const {
  return (monotonic_ns() - epoch_ns_) / 1000;
}

void FlightRecorder::begin_run(size_t worker_lanes,
                               std::vector<ShardMeta> shards) {
  if (!enabled()) return;
  shards_ = std::move(shards);
  while (slabs_.size() <= worker_lanes) {
    slabs_.push_back(std::make_unique<Slab>());
  }
  // Worst case one worker runs every shard (3 records each: span +
  // queue-depth + RSS samples) plus phase headroom; reserving up front
  // keeps worker-side appends allocation-free.
  const size_t capacity = 3 * shards_.size() + 16;
  for (auto& slab : slabs_) {
    slab->records.reserve(slab->records.size() + capacity);
  }
}

ExecRecord* FlightRecorder::append(uint16_t worker_lane) {
  if (!enabled()) return nullptr;
  if (worker_lane >= slabs_.size()) return nullptr;
  return &slabs_[worker_lane]->records.emplace_back();
}

void FlightRecorder::record_shard(uint16_t worker_lane, int32_t shard_index,
                                  int64_t pickup_us, int64_t finish_us,
                                  int64_t queue_wait_us, double queue_depth,
                                  size_t rss_bytes, size_t dataset_bytes) {
  ExecRecord* span = append(worker_lane);
  if (span == nullptr) return;
  span->kind = ExecRecord::Kind::kShardSpan;
  span->worker = worker_lane;
  span->shard_index = shard_index;
  span->start_us = pickup_us;
  span->end_us = finish_us;
  span->queue_wait_us = queue_wait_us;
  span->bytes = dataset_bytes;
  record_counter(worker_lane, "queue_depth", finish_us, queue_depth);
  record_counter(worker_lane, "rss_mb", finish_us,
                 static_cast<double>(rss_bytes) / (1024.0 * 1024.0));
}

void FlightRecorder::record_phase(uint16_t worker_lane, const char* name,
                                  int64_t start_us, int64_t end_us) {
  ExecRecord* record = append(worker_lane);
  if (record == nullptr) return;
  record->kind = ExecRecord::Kind::kPhaseSpan;
  record->worker = worker_lane;
  record->start_us = start_us;
  record->end_us = end_us;
  copy_name(*record, name);
}

void FlightRecorder::record_counter(uint16_t worker_lane, const char* name,
                                    int64_t at_us, double value) {
  ExecRecord* record = append(worker_lane);
  if (record == nullptr) return;
  record->kind = ExecRecord::Kind::kCounter;
  record->worker = worker_lane;
  record->start_us = at_us;
  record->end_us = at_us;
  record->value = value;
  copy_name(*record, name);
}

FlightRecorder::Dump FlightRecorder::dump() const {
  Dump out;
  out.worker_lanes = slabs_.empty() ? 0 : slabs_.size() - 1;
  out.shards = shards_;
  size_t total = 0;
  for (const auto& slab : slabs_) total += slab->records.size();
  out.records.reserve(total);
  for (const auto& slab : slabs_) {
    out.records.insert(out.records.end(), slab->records.begin(),
                       slab->records.end());
  }
  // Deterministic merge: the timeline is a pure function of the recorded
  // timestamps and lanes, never of slab iteration order (stable sort
  // keeps each lane's own append order on timestamp ties).
  std::stable_sort(out.records.begin(), out.records.end(),
                   [](const ExecRecord& a, const ExecRecord& b) {
                     if (a.start_us != b.start_us) return a.start_us < b.start_us;
                     return a.worker < b.worker;
                   });
  return out;
}

void FlightRecorder::clear() {
  slabs_.clear();
  shards_.clear();
  if (enabled()) slabs_.push_back(std::make_unique<Slab>());
}

RunReport::Profile build_profile(const FlightRecorder::Dump& dump,
                                 size_t peak_rss_bytes) {
  RunReport::Profile profile;
  profile.enabled = true;
  profile.stall_factor = kStallFactor;
  profile.peak_rss_mb =
      static_cast<double>(peak_rss_bytes) / (1024.0 * 1024.0);

  profile.shards.assign(dump.shards.size(), RunReport::ShardProfile{});
  for (size_t i = 0; i < dump.shards.size(); ++i) {
    profile.shards[i].label = dump.shards[i].label;
  }

  int64_t first_start = std::numeric_limits<int64_t>::max();
  int64_t last_end = 0;
  int64_t busy_us = 0;
  std::vector<double> waits_ms;
  std::vector<double> walls_ms;
  for (const ExecRecord& record : dump.records) {
    if (record.kind != ExecRecord::Kind::kShardSpan) continue;
    if (record.shard_index < 0 ||
        static_cast<size_t>(record.shard_index) >= profile.shards.size()) {
      continue;
    }
    RunReport::ShardProfile& shard =
        profile.shards[static_cast<size_t>(record.shard_index)];
    shard.worker = record.worker;
    shard.wall_ms = static_cast<double>(record.end_us - record.start_us) / 1000.0;
    shard.queue_wait_ms = static_cast<double>(record.queue_wait_us) / 1000.0;
    first_start = std::min(first_start, record.start_us);
    last_end = std::max(last_end, record.end_us);
    busy_us += record.end_us - record.start_us;
    waits_ms.push_back(shard.queue_wait_ms);
    walls_ms.push_back(shard.wall_ms);
  }

  profile.queue_wait_p50_ms = percentile(waits_ms, 50.0);
  profile.queue_wait_p95_ms = percentile(waits_ms, 95.0);
  profile.median_shard_wall_ms = percentile(walls_ms, 50.0);

  // Stall watchdog: a shard is stalled when its wall per device exceeds
  // kStallFactor × the median over non-empty shards (and that median is
  // meaningful at all), so fleet imbalance — 64 devices against 4 — is
  // not a stall.
  std::vector<double> per_device_ms(profile.shards.size(), 0.0);
  std::vector<double> nonempty_ms;
  for (size_t i = 0; i < profile.shards.size(); ++i) {
    if (dump.shards[i].devices == 0) continue;
    per_device_ms[i] = profile.shards[i].wall_ms /
                       static_cast<double>(dump.shards[i].devices);
    nonempty_ms.push_back(per_device_ms[i]);
  }
  const double threshold = kStallFactor * percentile(nonempty_ms, 50.0);
  for (size_t i = 0; i < profile.shards.size(); ++i) {
    profile.shards[i].stalled = threshold > 0.0 && per_device_ms[i] > threshold;
  }

  if (last_end > first_start && dump.worker_lanes > 0) {
    profile.worker_utilization_pct =
        100.0 * static_cast<double>(busy_us) /
        (static_cast<double>(last_end - first_start) *
         static_cast<double>(dump.worker_lanes));
  }
  return profile;
}

}  // namespace curtain::obs
