// TTL-driven DNS cache (RFC 1034 §5.3, RFC 2308 negative caching).
//
// Cache behaviour is load-bearing for the study: CDNs use very short TTLs
// (tens of seconds) so that redirection stays responsive, which makes
// cellular resolvers miss ~20% of even very popular names (paper Fig. 7)
// and puts the full recursion cost in the resolution-time tail (Fig. 5).
//
// Content is interned: each entry's key, TTL and records live once in an
// RrsetPool (dns/rrset_pool.h) shared by every lane cache of one
// resolver, and the cache itself holds only 24-byte slots — a pointer to
// the pooled rrset, the lane's expiry time, an insertion number and a
// hash tag. The slots form one flat min-heap ordered by (expiry,
// insertion number), so eviction is deterministic and equal expiries
// leave in insertion order; small caches find keys by scanning the slots'
// tags, and a cache past kScanLimit entries grows an open-addressing
// index over heap positions. Every insert also sweeps entries already
// past their TTL: expired entries can only read as misses, so the sweep
// is invisible to lookups, and it keeps a lane's cache sized by what is
// *live* — million-device campaigns would otherwise strand expired
// short-TTL entries in every touched lane.
//
// Hits are served as borrowed views (CacheHit) of the pooled rrset: the
// record vector is never copied on lookup; TTL aging is computed once per
// hit, from this lane's insert time, and applied lazily by the caller. A
// view stays valid as long as the pool — for a lane cache, its owning
// resolver — whatever the cache does afterwards: pooled rrsets are
// immutable and never freed while the pool lives.
//
// lint-hot-path: lookup/insert run on every simulated resolution, so
// curtain_lint holds this file to the hot-alloc rule.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dns/record.h"
#include "dns/rrset_pool.h"
#include "net/time.h"

namespace curtain::dns {

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t expired_evictions = 0;
  uint64_t capacity_evictions = 0;
};

/// A borrowed view of a cache hit: the pooled rrset plus this lane's
/// time in cache. Valid as long as the cache's RrsetPool.
///
/// TTL aging (RFC 1035 §3.2.1) is carried as a single elapsed-seconds
/// value instead of a re-written record copy; callers that need aged
/// records materialize them with append_aged().
class CacheHit {
 public:
  bool negative() const { return rrset_->negative; }
  /// The stored records with their *original* (un-aged) TTLs.
  const std::vector<ResourceRecord>& records() const {
    return rrset_->records;
  }
  /// Seconds the entry has spent in this cache at lookup time.
  uint32_t elapsed_s() const { return elapsed_s_; }
  /// Ages one stored TTL by the time spent in cache.
  uint32_t aged_ttl(uint32_t ttl) const {
    return ttl > elapsed_s_ ? ttl - elapsed_s_ : 0;
  }

  /// Appends copies of the records with aged TTLs.
  void append_aged(std::vector<ResourceRecord>& out) const {
    out.reserve(out.size() + rrset_->records.size());
    for (const auto& rr : rrset_->records) {
      out.push_back(rr);
      out.back().ttl = aged_ttl(rr.ttl);
    }
  }

 private:
  friend class Cache;
  CacheHit(const PooledRrset* rrset, uint32_t elapsed_s)
      : rrset_(rrset), elapsed_s_(elapsed_s) {}

  const PooledRrset* rrset_;
  uint32_t elapsed_s_;
};

class Cache {
 public:
  static constexpr size_t kDefaultMaxEntries = 100000;
  /// Caches up to this size find keys by scanning slot tags; larger ones
  /// keep a hash index.
  static constexpr size_t kScanLimit = 32;
  /// CDN-era resolvers honor short TTLs; entries are capped at a day like
  /// common resolver software.
  static constexpr uint32_t kMaxTtlS = 86400;

  /// A cache holding at most `max_entries` (0 caches nothing) that
  /// interns into `pool` — its owner's, shared by the owner's lane
  /// caches — or, when `pool` is null, into a private pool of its own.
  explicit Cache(size_t max_entries = kDefaultMaxEntries,
                 std::shared_ptr<RrsetPool> pool = nullptr);

  /// Returns a borrowed view of the entry if present and unexpired (see
  /// CacheHit for lifetime and TTL-aging semantics). An expired entry
  /// found here is erased and counted as a miss.
  /// `scope` partitions entries by client subnet for ECS-tailored answers
  /// (RFC 7871 §7.3.1); 0 = subnet-independent data.
  std::optional<CacheHit> lookup(const DnsName& name, RRType type,
                                 net::SimTime now, uint32_t scope = 0);

  /// Inserts a positive rrset; entry TTL = min record TTL, capped at
  /// kMaxTtlS. Zero-TTL rrsets are uncacheable (RFC 1035 §3.2.1).
  void insert(const DnsName& name, RRType type,
              std::vector<ResourceRecord> records, net::SimTime now,
              uint32_t scope = 0);

  /// Inserts a negative entry with the given TTL (SOA minimum), under the
  /// same zero rule and cap.
  void insert_negative(const DnsName& name, RRType type, uint32_t ttl_s,
                       net::SimTime now, uint32_t scope = 0);

  size_t size() const { return heap_.size(); }
  const CacheStats& stats() const { return stats_; }
  /// The pool this cache interns into.
  const RrsetPool& pool() const { return *pool_; }

  /// Approximate heap bytes of this cache's own slots and index. Pooled
  /// content is the pool's to report (RrsetPool::approx_bytes), once per
  /// owner. A profiling gauge (obs/memory.h) — counts capacities, not
  /// exact allocator accounting.
  size_t approx_bytes() const;

 private:
  friend struct CachePeer;  // tests: insertion-number wrap-around

  struct Slot {
    const PooledRrset* rrset;
    net::SimTime expires;
    uint32_t order;  ///< insertion number; orders equal expiries
    uint32_t tag;    ///< low bits of the key hash: scan and probe filter
  };
  static constexpr size_t kNone = ~size_t{0};

  /// Interns `rrset` (key and TTL already set) and stores it at `now`.
  void insert_entry(PooledRrset rrset, net::SimTime now);
  /// Heap position of the (name, type, scope) entry, or kNone.
  size_t find(const DnsName& name, RRType type, uint32_t scope,
              size_t hash) const;
  /// Removes every entry whose expiry is <= now, charging expired stats.
  void purge_expired(net::SimTime now);
  void erase_at(size_t pos);

  // Min-heap over (expires, order), kept in step with the index.
  static bool earlier(const Slot& a, const Slot& b) {
    return a.expires != b.expires ? a.expires < b.expires : a.order < b.order;
  }
  void swap_slots(size_t a, size_t b);
  void sift_up(size_t pos);
  void sift_down(size_t pos);
  /// The next insertion number; renumbers live slots before it wraps.
  uint32_t next_order();

  // Open-addressing index (linear probing; entries are heap position + 1,
  // 0 = empty), present only above kScanLimit entries.
  size_t bucket_of(size_t pos) const;
  void index_insert(size_t pos);
  void index_erase(size_t pos);
  void rebuild_index(size_t buckets);

  std::shared_ptr<RrsetPool> pool_;
  std::vector<Slot> heap_;
  std::vector<uint32_t> index_;
  size_t max_entries_;
  uint32_t next_order_ = 0;
  CacheStats stats_;
};

}  // namespace curtain::dns
