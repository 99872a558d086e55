// Interned DNS cache content: one shared copy of each cached rrset.
//
// Every device keeps its own lane copy of every resolver cache it touches
// (net/state_lane.h), which is what keeps campaign exports byte-identical
// across cohort and worker counts. The *content* of those caches barely
// varies, though: authoritative servers hand every lane the same rrsets,
// so a campaign's millions of lane entries cover a few hundred distinct
// contents. An RrsetPool stores each of them once per owning resolver;
// lane caches (dns/cache.h) keep compact slots pointing into it.
//
// The pool is append-only: an interned rrset is immutable and lives, at
// a stable address, as long as the pool. Lanes of one resolver run on
// different workers, so intern() takes a mutex. Readers never do: a lane
// only dereferences rrsets it obtained from intern() itself, and the
// mutex orders that hand-off after the rrset was built.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dns/record.h"
#include "obs/memory.h"

namespace curtain::dns {

/// One immutable cache entry's content: the cache key (name, type, ECS
/// scope), the TTL the caching resolver granted after its clamp, and the
/// records (none for a negative entry).
struct PooledRrset {
  DnsName name;
  RRType type = RRType::kA;
  uint32_t scope = 0;     ///< ECS client-subnet partition; 0 = global
  bool negative = false;  ///< NXDOMAIN / NODATA marker
  uint32_t ttl_s = 0;     ///< entry TTL after the cache's clamp
  std::vector<ResourceRecord> records;

  bool operator==(const PooledRrset&) const = default;

  /// Hash of the cache key alone; lookups compute it from the query.
  static size_t key_hash(const DnsName& name, RRType type, uint32_t scope) {
    return (name.hash() * 31 + static_cast<size_t>(type)) * 31 + scope;
  }
};

class RrsetPool {
 public:
  RrsetPool() = default;
  RrsetPool(const RrsetPool&) = delete;
  RrsetPool& operator=(const RrsetPool&) = delete;

  /// The pooled copy of `rrset`: the existing one if equal content was
  /// interned before, else `rrset` itself, moved into the pool.
  /// `key_hash` is PooledRrset::key_hash of its key, which the caller
  /// already has. Thread-safe; the returned reference stays valid for
  /// the pool's life.
  const PooledRrset& intern(PooledRrset&& rrset, size_t key_hash);

  /// Distinct rrsets interned so far.
  size_t size() const;

  /// Approximate heap bytes of the pooled rrsets (records, name and
  /// rdata spill) and the intern index. A profiling gauge — see
  /// obs/memory.h.
  size_t approx_bytes() const;

  /// The pool's share of its owner's lane memory: approx_bytes() as
  /// cache_bytes and pool_bytes, size() as pooled_rrsets. Owners add it
  /// once, however many lanes point into the pool.
  obs::LaneMemory lane_memory() const;

 private:
  mutable std::mutex mutex_;
  /// Append-only; one allocation per rrset keeps addresses stable and
  /// an empty pool allocation-free.
  std::vector<std::unique_ptr<const PooledRrset>> rrsets_;
  /// Content hash -> pooled rrsets with that hash.
  std::unordered_multimap<size_t, const PooledRrset*> by_hash_;
};

}  // namespace curtain::dns
