// lint-hot-path (cache lookup/insert path; see dns/cache.h)
#include "dns/cache.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "obs/memory.h"
#include "obs/metrics.h"

namespace curtain::dns {
namespace {

// Process-wide totals across every cache instance (recursive resolvers,
// client-facing pool machines, public DNS sites); per-instance numbers
// stay in CacheStats.
struct CacheMetrics {
  obs::Counter& hits = obs::metrics().counter(
      "curtain_dns_cache_hits_total", "DNS cache lookups served from cache");
  obs::Counter& misses = obs::metrics().counter(
      "curtain_dns_cache_misses_total", "DNS cache lookups that missed");
  obs::Counter& expired = obs::metrics().counter(
      "curtain_dns_cache_expired_evictions_total",
      "cache entries evicted on TTL expiry");
  obs::Counter& capacity = obs::metrics().counter(
      "curtain_dns_cache_capacity_evictions_total",
      "cache entries evicted by the size cap");
};

CacheMetrics& cache_metrics() {
  // Handles re-bind whenever the thread's sheaf changes (obs/metrics.h).
  static thread_local obs::SheafLocal<CacheMetrics> metrics;
  return metrics.get();
}

}  // namespace

Cache::Cache(size_t max_entries, std::shared_ptr<RrsetPool> pool)
    : pool_(std::move(pool)), max_entries_(max_entries) {
  // Lane caches share their owner's pool; a standalone cache gets its own.
  if (!pool_) pool_ = std::make_shared<RrsetPool>();  // lint: hot-alloc (one private pool per standalone cache)
}

std::optional<CacheHit> Cache::lookup(const DnsName& name, RRType type,
                                      net::SimTime now, uint32_t scope) {
  const size_t pos =
      find(name, type, scope, PooledRrset::key_hash(name, type, scope));
  if (pos == kNone) {
    ++stats_.misses;
    cache_metrics().misses.inc();
    return std::nullopt;
  }
  const Slot slot = heap_[pos];
  if (slot.expires <= now) {
    erase_at(pos);
    ++stats_.expired_evictions;
    cache_metrics().expired.inc();
    ++stats_.misses;
    cache_metrics().misses.inc();
    return std::nullopt;
  }
  ++stats_.hits;
  cache_metrics().hits.inc();
  // The slot keeps only the expiry; the insert time is exactly
  // expires - TTL (integer microseconds).
  const net::SimTime inserted =
      slot.expires - net::SimTime::from_seconds(slot.rrset->ttl_s);
  const auto elapsed_s = static_cast<uint32_t>((now - inserted).seconds());
  return CacheHit(slot.rrset, elapsed_s);
}

void Cache::insert(const DnsName& name, RRType type,
                   std::vector<ResourceRecord> records, net::SimTime now,
                   uint32_t scope) {
  if (records.empty()) return;
  uint32_t ttl = UINT32_MAX;
  for (const auto& rr : records) ttl = std::min(ttl, rr.ttl);
  if (ttl == 0) return;  // an authority's explicit "do not cache"
  insert_entry(PooledRrset{name, type, scope, false, std::min(ttl, kMaxTtlS),
                           std::move(records)},
               now);
}

void Cache::insert_negative(const DnsName& name, RRType type, uint32_t ttl_s,
                            net::SimTime now, uint32_t scope) {
  if (ttl_s == 0) return;  // same rule as positive entries
  insert_entry(
      PooledRrset{name, type, scope, true, std::min(ttl_s, kMaxTtlS), {}},
      now);
}

void Cache::insert_entry(PooledRrset rrset, net::SimTime now) {
  if (max_entries_ == 0) return;  // capacity zero caches nothing
  // Eager sweep: every insert drops entries already past their TTL. A
  // dead entry can only ever read as a miss, so reclaiming it here is
  // invisible to lookups — but without the sweep, long campaigns strand
  // expired short-TTL entries in every device's lane caches (the cache is
  // only consulted again if that device resolves again).
  purge_expired(now);
  const size_t hash = PooledRrset::key_hash(rrset.name, rrset.type, rrset.scope);
  const PooledRrset& pooled = pool_->intern(std::move(rrset), hash);
  const Slot slot{&pooled,
                  now + net::SimTime::from_seconds(pooled.ttl_s),
                  next_order(), static_cast<uint32_t>(hash)};
  const size_t pos = find(pooled.name, pooled.type, pooled.scope, hash);
  if (pos != kNone) {
    // Overwrite: the fresh insertion number moves the entry behind every
    // entry sharing its new expiry, as a fresh insert would.
    heap_[pos] = slot;
    sift_up(pos);
    sift_down(pos);
    return;
  }
  // The sweep above already cleared dead entries, so anything evicted
  // for capacity now is genuinely live: the soonest expiry, ties in
  // insertion order.
  while (heap_.size() >= max_entries_) {
    erase_at(0);
    ++stats_.capacity_evictions;
    cache_metrics().capacity.inc();
  }
  heap_.push_back(slot);
  const size_t last = heap_.size() - 1;
  if (!index_.empty() && heap_.size() * 4 <= index_.size() * 3) {
    index_insert(last);
  } else if (heap_.size() > kScanLimit) {
    rebuild_index(std::bit_ceil(heap_.size() * 2));
  }
  sift_up(last);
}

size_t Cache::find(const DnsName& name, RRType type, uint32_t scope,
                   size_t hash) const {
  const auto tag = static_cast<uint32_t>(hash);
  const auto matches = [&](const Slot& slot) {
    return slot.tag == tag && slot.rrset->type == type &&
           slot.rrset->scope == scope && slot.rrset->name == name;
  };
  if (index_.empty()) {
    for (size_t pos = 0; pos < heap_.size(); ++pos) {
      if (matches(heap_[pos])) return pos;
    }
    return kNone;
  }
  const size_t mask = index_.size() - 1;
  for (size_t b = tag & mask;; b = (b + 1) & mask) {
    const uint32_t entry = index_[b];
    if (entry == 0) return kNone;
    if (matches(heap_[entry - 1])) return entry - 1;
  }
}

void Cache::purge_expired(net::SimTime now) {
  while (!heap_.empty() && heap_.front().expires <= now) {
    erase_at(0);
    ++stats_.expired_evictions;
    cache_metrics().expired.inc();
  }
}

void Cache::erase_at(size_t pos) {
  const size_t last = heap_.size() - 1;
  if (!index_.empty()) {
    index_erase(pos);
    if (pos != last) index_[bucket_of(last)] = static_cast<uint32_t>(pos + 1);
  }
  heap_[pos] = heap_[last];
  heap_.pop_back();
  if (pos < heap_.size()) {
    sift_up(pos);
    sift_down(pos);
  }
}

void Cache::swap_slots(size_t a, size_t b) {
  if (!index_.empty()) std::swap(index_[bucket_of(a)], index_[bucket_of(b)]);
  std::swap(heap_[a], heap_[b]);
}

void Cache::sift_up(size_t pos) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!earlier(heap_[pos], heap_[parent])) return;
    swap_slots(pos, parent);
    pos = parent;
  }
}

void Cache::sift_down(size_t pos) {
  while (true) {
    size_t first = pos;
    for (const size_t child : {2 * pos + 1, 2 * pos + 2}) {
      if (child < heap_.size() && earlier(heap_[child], heap_[first])) {
        first = child;
      }
    }
    if (first == pos) return;
    swap_slots(pos, first);
    pos = first;
  }
}

uint32_t Cache::next_order() {
  if (next_order_ == std::numeric_limits<uint32_t>::max()) {
    // Renumber live slots 0..n-1 in heap order. A sorted array is a
    // valid heap, and ranks keep every relative order, so eviction order
    // is unchanged.
    std::sort(heap_.begin(), heap_.end(), earlier);
    for (size_t pos = 0; pos < heap_.size(); ++pos) {
      heap_[pos].order = static_cast<uint32_t>(pos);
    }
    next_order_ = static_cast<uint32_t>(heap_.size());
    if (!index_.empty()) rebuild_index(index_.size());
  }
  return next_order_++;
}

size_t Cache::bucket_of(size_t pos) const {
  const size_t mask = index_.size() - 1;
  size_t b = heap_[pos].tag & mask;
  while (index_[b] != pos + 1) b = (b + 1) & mask;
  return b;
}

void Cache::index_insert(size_t pos) {
  const size_t mask = index_.size() - 1;
  size_t b = heap_[pos].tag & mask;
  while (index_[b] != 0) b = (b + 1) & mask;
  index_[b] = static_cast<uint32_t>(pos + 1);
}

void Cache::index_erase(size_t pos) {
  // Backward-shift deletion: walk the probe run after the hole and move
  // back every entry whose home bucket does not lie between the hole and
  // its current bucket, so lookups never need tombstones.
  const size_t mask = index_.size() - 1;
  size_t hole = bucket_of(pos);
  for (size_t b = (hole + 1) & mask; index_[b] != 0; b = (b + 1) & mask) {
    const size_t home = heap_[index_[b] - 1].tag & mask;
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      index_[hole] = index_[b];
      hole = b;
    }
  }
  index_[hole] = 0;
}

void Cache::rebuild_index(size_t buckets) {
  index_.assign(buckets, 0);
  for (size_t pos = 0; pos < heap_.size(); ++pos) index_insert(pos);
}

size_t Cache::approx_bytes() const {
  size_t bytes = 0;
  if (heap_.capacity() != 0) {
    bytes += heap_.capacity() * sizeof(Slot) + obs::kAllocOverheadBytes;
  }
  if (index_.capacity() != 0) {
    bytes += index_.capacity() * sizeof(uint32_t) + obs::kAllocOverheadBytes;
  }
  return bytes;
}

}  // namespace curtain::dns
