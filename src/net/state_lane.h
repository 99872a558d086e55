// State lanes: which device the current thread is simulating.
//
// The cohort-sharded campaign engine (curtain::exec) partitions the fleet
// into (carrier, cohort) shards and runs each shard's devices one after
// another (device-major). World components that keep mutable runtime
// state behind a shared facade partition that state by *state lane*
// instead of by lock. There is one lane per enrolled device, fixed by the
// device's global enrollment ordinal (lane d+1; lane 0 belongs to the
// main thread: world construction, the vantage sweep, tests and tools).
// All result-visible mutable state — resolver caches, query-id counters,
// NAT cursors — is laned. Because the device→lane mapping depends only on
// the fleet (never on cohort or worker counts) and a device's whole
// timeline runs on one thread, laned state evolves identically for every
// CURTAIN_SHARDS / CURTAIN_COHORTS value, which is what keeps campaign
// exports byte-identical across all of them. State lanes are the only
// execution-scoped keying; nothing is keyed by shard or worker.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "obs/memory.h"
#include "util/contract.h"

namespace curtain::net {
namespace detail {
inline thread_local int tls_state_lane = 0;
}  // namespace detail

/// Lane of the device the calling thread is simulating: 0 outside any
/// device timeline (main thread), device ordinal+1 inside.
inline int current_state_lane() { return detail::tls_state_lane; }

/// Sparse per-lane storage for result-visible laned state.
///
/// Values are keyed by state lane and materialize on first touch, so
/// memory scales with lanes actually exercised — never with the
/// fleet-wide lane count. (The dense vectors this replaces cost
/// 8 bytes × fleet per structure even when idle; across the hundreds of
/// laned structures — resolver instances, NAT cursors — a million-device
/// world paid gigabytes before the first experiment ran.)
///
/// Lanes at or beyond the configured count share lane 0, preserving the
/// clamp the dense vectors applied. A lane's *value* is still owned by
/// exactly one thread at a time (a device's whole timeline runs on one
/// shard, exec/shard.h); what concurrent shards share is the container,
/// so lookups take a reader lock and the one-time materialization of a
/// lane takes the writer lock. Returned references stay valid across
/// later insertions (node-based storage). Iteration is for post-join
/// accounting only, and iteration order is hash order — callers folding
/// over touched lanes must combine commutatively.
template <typename T>
class LaneTable {
 public:
  LaneTable() : mutex_(std::make_unique<std::shared_mutex>()) {}
  LaneTable(LaneTable&&) = default;
  LaneTable& operator=(LaneTable&&) = default;

  /// Sizes the lane space and drops every value; untouched lanes will
  /// materialize as copies of `initial`. 0 lanes behaves as 1. Call at
  /// build time, before concurrent access.
  void reset(size_t lanes, T initial = T{}) {
    std::unique_lock lock(*mutex_);
    lanes_ = lanes == 0 ? 1 : lanes;
    initial_ = std::move(initial);
    values_.clear();
  }

  size_t lane_count() const { return lanes_; }

  /// Lanes materialized so far.
  size_t touched() const {
    std::shared_lock lock(*mutex_);
    return values_.size();
  }

  /// The value for `lane` (clamped), created from `initial` on first use.
  T& operator[](size_t lane) {
    const size_t key = clamp(lane);
    {
      std::shared_lock lock(*mutex_);
      const auto it = values_.find(key);
      if (it != values_.end()) return it->second;
    }
    std::unique_lock lock(*mutex_);
    return values_.try_emplace(key, initial_).first->second;
  }

  /// The value for `lane` if it was ever touched, else nullptr.
  const T* find(size_t lane) const {
    std::shared_lock lock(*mutex_);
    const auto it = values_.find(clamp(lane));
    return it == values_.end() ? nullptr : &it->second;
  }

  auto begin() const { return values_.begin(); }
  auto end() const { return values_.end(); }

  /// Heap bytes of the table itself (nodes + buckets), excluding any heap
  /// the values own. A profiling gauge — see obs/memory.h.
  size_t approx_container_bytes() const {
    std::shared_lock lock(*mutex_);
    constexpr size_t kNodeOverhead =
        2 * sizeof(void*) + obs::kAllocOverheadBytes;
    return values_.size() * (sizeof(size_t) + sizeof(T) + kNodeOverhead) +
           values_.bucket_count() * sizeof(void*);
  }

 private:
  size_t clamp(size_t lane) const { return lane < lanes_ ? lane : 0; }

  size_t lanes_ = 1;
  T initial_{};
  std::unordered_map<size_t, T> values_;
  /// Behind a pointer so tables stay movable (Gateway lives in a vector).
  mutable std::unique_ptr<std::shared_mutex> mutex_;
};

/// RAII lane binding for one device's timeline on the current thread.
class StateLaneGuard {
 public:
  explicit StateLaneGuard(int lane) : previous_(detail::tls_state_lane) {
    CURTAIN_CHECK(lane >= 0) << "negative state lane " << lane;
    detail::tls_state_lane = lane;
  }
  ~StateLaneGuard() { detail::tls_state_lane = previous_; }
  StateLaneGuard(const StateLaneGuard&) = delete;
  StateLaneGuard& operator=(const StateLaneGuard&) = delete;

 private:
  int previous_;
};

}  // namespace curtain::net
