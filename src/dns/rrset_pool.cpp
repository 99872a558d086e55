#include "dns/rrset_pool.h"

#include <variant>


namespace curtain::dns {
namespace {

size_t mix(size_t seed, size_t value) {
  return (seed ^ value) * 0x100000001b3ULL + (seed >> 29);
}

/// Content hash: the key hash plus each record's TTL, rdata kind and A
/// address. Names inside rdata are left out — hashing them cost more
/// than the compares they would save; equal keys with equal record
/// shapes rarely differ only there, and intern() always confirms with
/// operator==.
size_t content_hash(const PooledRrset& rrset, size_t key_hash) {
  size_t h = mix(key_hash, (static_cast<size_t>(rrset.ttl_s) << 1) |
                               (rrset.negative ? 1 : 0));
  for (const ResourceRecord& rr : rrset.records) {
    h = mix(h, (static_cast<size_t>(rr.ttl) << 8) | rr.rdata.index());
    if (const auto* a = std::get_if<ARecord>(&rr.rdata)) {
      h = mix(h, a->address.value());
    }
  }
  return h;
}

}  // namespace

const PooledRrset& RrsetPool::intern(PooledRrset&& rrset, size_t key_hash) {
  const size_t hash = content_hash(rrset, key_hash);
  std::lock_guard lock(mutex_);
  for (auto [it, end] = by_hash_.equal_range(hash); it != end; ++it) {
    if (*it->second == rrset) return *it->second;
  }
  rrset.records.shrink_to_fit();  // new content is rare; keep it tight
  const PooledRrset& pooled = *rrsets_.emplace_back(
      std::make_unique<const PooledRrset>(std::move(rrset)));
  by_hash_.emplace(hash, &pooled);
  return pooled;
}

size_t RrsetPool::size() const {
  std::lock_guard lock(mutex_);
  return rrsets_.size();
}

size_t RrsetPool::approx_bytes() const {
  std::lock_guard lock(mutex_);
  // Every pooled rrset, its record vector and each index node is its own
  // allocation.
  constexpr size_t kIndexNode = sizeof(size_t) + sizeof(const PooledRrset*) +
                                2 * sizeof(void*) + obs::kAllocOverheadBytes;
  size_t bytes = rrsets_.capacity() * sizeof(rrsets_[0]) +
                 obs::kAllocOverheadBytes +
                 by_hash_.size() * kIndexNode +
                 by_hash_.bucket_count() * sizeof(void*);
  for (const auto& rrset : rrsets_) {
    bytes += sizeof(PooledRrset) + obs::kAllocOverheadBytes +
             rrset->name.approx_heap_bytes();
    if (rrset->records.capacity() != 0) {
      bytes += rrset->records.capacity() * sizeof(ResourceRecord) +
               obs::kAllocOverheadBytes;
    }
    for (const ResourceRecord& rr : rrset->records) {
      bytes += rr.approx_heap_bytes();
    }
  }
  return bytes;
}

obs::LaneMemory RrsetPool::lane_memory() const {
  obs::LaneMemory memory;
  memory.pool_bytes = approx_bytes();
  memory.cache_bytes = memory.pool_bytes;
  memory.pooled_rrsets = size();
  return memory;
}

}  // namespace curtain::dns
