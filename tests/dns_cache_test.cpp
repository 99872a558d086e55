#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dns/cache.h"
#include "net/rng.h"

namespace curtain::dns {

/// Test access to the insertion-number counter, so the wrap-around path
/// runs without four billion inserts.
struct CachePeer {
  static void set_next_order(Cache& cache, uint32_t order) {
    cache.next_order_ = order;
  }
};

namespace {

using net::SimTime;

DnsName name(const char* s) { return *DnsName::parse(s); }

ResourceRecord a_record(const char* host, uint32_t ttl) {
  return ResourceRecord::a(name(host), net::Ipv4Addr{1, 2, 3, 4}, ttl);
}

TEST(Cache, MissOnEmpty) {
  Cache cache;
  EXPECT_FALSE(cache.lookup(name("a.com"), RRType::kA, SimTime::zero()));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, HitWithinTtl) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)},
               SimTime::zero());
  const auto hit = cache.lookup(name("a.com"), RRType::kA,
                                SimTime::from_seconds(29));
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->negative());
  ASSERT_EQ(hit->records().size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, TtlAging) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)},
               SimTime::zero());
  const auto hit = cache.lookup(name("a.com"), RRType::kA,
                                SimTime::from_seconds(12));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->elapsed_s(), 12u);
  std::vector<ResourceRecord> aged;
  hit->append_aged(aged);
  EXPECT_EQ(aged[0].ttl, 18u);
  // The stored record keeps its original TTL; aging never rewrites it.
  EXPECT_EQ(hit->records()[0].ttl, 30u);
}

TEST(Cache, HitIsViewNotCopy) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)},
               SimTime::zero());
  const auto first = cache.lookup(name("a.com"), RRType::kA,
                                  SimTime::from_seconds(1));
  const auto second = cache.lookup(name("a.com"), RRType::kA,
                                   SimTime::from_seconds(2));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // Both hits borrow the same stored vector — lookup copies nothing.
  EXPECT_EQ(first->records().data(), second->records().data());
  EXPECT_EQ(first->aged_ttl(30), 29u);
  EXPECT_EQ(second->aged_ttl(30), 28u);
}

TEST(Cache, ExpiresExactlyAtTtl) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)},
               SimTime::zero());
  EXPECT_FALSE(
      cache.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(30)));
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
}

TEST(Cache, EntryTtlIsMinOfRrset) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA,
               {a_record("a.com", 30), a_record("a.com", 10)}, SimTime::zero());
  EXPECT_TRUE(
      cache.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(9)));
  EXPECT_FALSE(
      cache.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(11)));
}

TEST(Cache, ZeroTtlNeverCached) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 0)},
               SimTime::zero());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(name("a.com"), RRType::kA, SimTime::zero()));
}

TEST(Cache, ZeroTtlUncacheableEvenWithMinTtlFloor) {
  // TTL 0 means "do not cache", for positive and negative entries alike.
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 0)},
               SimTime::zero());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(name("a.com"), RRType::kA, SimTime::zero()));
  cache.insert_negative(name("nx.com"), RRType::kA, 0, SimTime::zero());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, TypesAreIndependent) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 60)},
               SimTime::zero());
  EXPECT_FALSE(cache.lookup(name("a.com"), RRType::kCNAME, SimTime::zero()));
  EXPECT_TRUE(cache.lookup(name("a.com"), RRType::kA, SimTime::zero()));
}

TEST(Cache, NamesCompareCaseInsensitively) {
  Cache cache;
  cache.insert(name("A.CoM"), RRType::kA, {a_record("a.com", 60)},
               SimTime::zero());
  EXPECT_TRUE(cache.lookup(name("a.com"), RRType::kA, SimTime::zero()));
}

TEST(Cache, NegativeEntry) {
  Cache cache;
  cache.insert_negative(name("nx.com"), RRType::kA, 300, SimTime::zero());
  const auto hit = cache.lookup(name("nx.com"), RRType::kA,
                                SimTime::from_seconds(100));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->negative());
  EXPECT_TRUE(hit->records().empty());
  EXPECT_FALSE(
      cache.lookup(name("nx.com"), RRType::kA, SimTime::from_seconds(301)));
}

TEST(Cache, OverwriteRefreshesEntry) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 10)},
               SimTime::zero());
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 10)},
               SimTime::from_seconds(8));
  EXPECT_TRUE(
      cache.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(15)));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, CapacityEvictionPrefersSoonestExpiry) {
  Cache cache(/*max_entries=*/2);
  cache.insert(name("long.com"), RRType::kA, {a_record("long.com", 1000)},
               SimTime::zero());
  cache.insert(name("short.com"), RRType::kA, {a_record("short.com", 10)},
               SimTime::zero());
  cache.insert(name("new.com"), RRType::kA, {a_record("new.com", 500)},
               SimTime::zero());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(name("short.com"), RRType::kA, SimTime::zero()));
  EXPECT_TRUE(cache.lookup(name("long.com"), RRType::kA, SimTime::zero()));
  EXPECT_GE(cache.stats().capacity_evictions, 1u);
}

TEST(Cache, ExpiredPurgedBeforeLiveEviction) {
  // Regression: when the cache was saturated with *expired* entries, the
  // old scan evicted exactly one per insert and could charge it as a
  // capacity eviction. The sweep must clear all dead entries first and
  // attribute them to expired_evictions, leaving live entries untouched.
  Cache cache(/*max_entries=*/3);
  cache.insert(name("dead1.com"), RRType::kA, {a_record("dead1.com", 10)},
               SimTime::zero());
  cache.insert(name("dead2.com"), RRType::kA, {a_record("dead2.com", 20)},
               SimTime::zero());
  cache.insert(name("live.com"), RRType::kA, {a_record("live.com", 1000)},
               SimTime::zero());
  // At t=60 both dead entries are expired; inserting one more must purge
  // them both and evict nothing live.
  cache.insert(name("new.com"), RRType::kA, {a_record("new.com", 500)},
               SimTime::from_seconds(60));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().expired_evictions, 2u);
  EXPECT_EQ(cache.stats().capacity_evictions, 0u);
  EXPECT_TRUE(
      cache.lookup(name("live.com"), RRType::kA, SimTime::from_seconds(60)));
  EXPECT_TRUE(
      cache.lookup(name("new.com"), RRType::kA, SimTime::from_seconds(60)));
}

TEST(Cache, EqualExpiryEvictsInInsertionOrder) {
  // Entries sharing an expiry time must evict oldest-inserted first —
  // eviction order may never depend on hash-map iteration order.
  Cache cache(/*max_entries=*/3);
  cache.insert(name("first.com"), RRType::kA, {a_record("first.com", 100)},
               SimTime::zero());
  cache.insert(name("second.com"), RRType::kA, {a_record("second.com", 100)},
               SimTime::zero());
  cache.insert(name("third.com"), RRType::kA, {a_record("third.com", 100)},
               SimTime::zero());
  cache.insert(name("fourth.com"), RRType::kA, {a_record("fourth.com", 100)},
               SimTime::zero());
  EXPECT_FALSE(cache.lookup(name("first.com"), RRType::kA, SimTime::zero()));
  EXPECT_TRUE(cache.lookup(name("second.com"), RRType::kA, SimTime::zero()));
  cache.insert(name("fifth.com"), RRType::kA, {a_record("fifth.com", 100)},
               SimTime::zero());
  EXPECT_FALSE(cache.lookup(name("second.com"), RRType::kA, SimTime::zero()));
  EXPECT_TRUE(cache.lookup(name("third.com"), RRType::kA, SimTime::zero()));
  EXPECT_EQ(cache.stats().capacity_evictions, 2u);
}

TEST(Cache, NegativeEntryExpires) {
  Cache cache;
  cache.insert_negative(name("nx.com"), RRType::kA, 300, SimTime::zero());
  EXPECT_FALSE(
      cache.lookup(name("nx.com"), RRType::kA, SimTime::from_seconds(300)));
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, TtlBoundsClampInsertions) {
  // Entries are capped at one day, positive and negative alike.
  static_assert(Cache::kMaxTtlS == 86400);
  Cache cache;
  cache.insert(name("long.com"), RRType::kA, {a_record("long.com", 3 * 86400)},
               SimTime::zero());
  cache.insert_negative(name("nx.com"), RRType::kA, 3 * 86400, SimTime::zero());
  const SimTime last_second = SimTime::from_seconds(86399);
  EXPECT_TRUE(cache.lookup(name("long.com"), RRType::kA, last_second));
  EXPECT_TRUE(cache.lookup(name("nx.com"), RRType::kA, last_second));
  const SimTime one_day = SimTime::from_seconds(86400);
  EXPECT_FALSE(cache.lookup(name("long.com"), RRType::kA, one_day));
  EXPECT_FALSE(cache.lookup(name("nx.com"), RRType::kA, one_day));
}

TEST(Cache, CapacityZeroCachesNothing) {
  // Regression: the capacity loop never ended on a zero-capacity cache,
  // so the first insert hung.
  Cache cache(/*max_entries=*/0);
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 60)},
               SimTime::zero());
  cache.insert_negative(name("nx.com"), RRType::kA, 300, SimTime::zero());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(name("a.com"), RRType::kA, SimTime::zero()));
  EXPECT_FALSE(cache.lookup(name("nx.com"), RRType::kA, SimTime::zero()));
  EXPECT_EQ(cache.stats().capacity_evictions, 0u);
  EXPECT_EQ(cache.pool().size(), 0u);
}

TEST(Cache, LanesShareOnePooledCopy) {
  auto pool = std::make_shared<RrsetPool>();
  Cache lane1(Cache::kDefaultMaxEntries, pool);
  Cache lane2(Cache::kDefaultMaxEntries, pool);
  lane1.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)},
               SimTime::zero());
  lane2.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)},
               SimTime::zero());
  const auto hit1 = lane1.lookup(name("a.com"), RRType::kA, SimTime::zero());
  const auto hit2 = lane2.lookup(name("a.com"), RRType::kA, SimTime::zero());
  ASSERT_TRUE(hit1.has_value());
  ASSERT_TRUE(hit2.has_value());
  EXPECT_EQ(&hit1->records(), &hit2->records());
  EXPECT_EQ(pool->size(), 1u);
  EXPECT_EQ(&lane1.pool(), pool.get());
}

TEST(Cache, StandaloneCachesDoNotShare) {
  Cache a;
  Cache b;
  a.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)}, SimTime::zero());
  b.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)}, SimTime::zero());
  EXPECT_NE(&a.lookup(name("a.com"), RRType::kA, SimTime::zero())->records(),
            &b.lookup(name("a.com"), RRType::kA, SimTime::zero())->records());
}

TEST(Cache, LanesAgeSharedContentIndependently) {
  auto pool = std::make_shared<RrsetPool>();
  Cache early(Cache::kDefaultMaxEntries, pool);
  Cache late(Cache::kDefaultMaxEntries, pool);
  early.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)},
               SimTime::zero());
  late.insert(name("a.com"), RRType::kA, {a_record("a.com", 30)},
              SimTime::from_seconds(10));
  ASSERT_EQ(pool->size(), 1u);
  const auto early_hit =
      early.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(20));
  const auto late_hit =
      late.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(20));
  ASSERT_TRUE(early_hit.has_value());
  ASSERT_TRUE(late_hit.has_value());
  std::vector<ResourceRecord> early_aged;
  std::vector<ResourceRecord> late_aged;
  early_hit->append_aged(early_aged);
  late_hit->append_aged(late_aged);
  EXPECT_EQ(early_aged[0].ttl, 10u);
  EXPECT_EQ(late_aged[0].ttl, 20u);
  // Each lane expires on its own clock.
  EXPECT_FALSE(
      early.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(30)));
  EXPECT_TRUE(late.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(30)));
  EXPECT_FALSE(
      late.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(40)));
}

TEST(Cache, OverwriteWithDifferentContent) {
  auto pool = std::make_shared<RrsetPool>();
  Cache lane1(Cache::kDefaultMaxEntries, pool);
  Cache lane2(Cache::kDefaultMaxEntries, pool);
  lane1.insert(name("a.com"), RRType::kA, {a_record("a.com", 60)},
               SimTime::zero());
  lane2.insert(name("a.com"), RRType::kA, {a_record("a.com", 60)},
               SimTime::zero());
  const ResourceRecord moved =
      ResourceRecord::a(name("a.com"), net::Ipv4Addr{5, 6, 7, 8}, 100);
  lane1.insert(name("a.com"), RRType::kA, {moved}, SimTime::from_seconds(5));
  EXPECT_EQ(lane1.size(), 1u);
  EXPECT_EQ(pool->size(), 2u);
  const auto fresh =
      lane1.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(80));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->records(), std::vector<ResourceRecord>{moved});
  EXPECT_EQ(fresh->elapsed_s(), 75u);
  // The other lane still holds the old content, and still expires at 60.
  const auto old = lane2.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(5));
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->records(), std::vector<ResourceRecord>{a_record("a.com", 60)});
  EXPECT_FALSE(
      lane2.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(60)));
}

TEST(Cache, NegativeEntriesArePooled) {
  auto pool = std::make_shared<RrsetPool>();
  Cache lane1(Cache::kDefaultMaxEntries, pool);
  Cache lane2(Cache::kDefaultMaxEntries, pool);
  lane1.insert_negative(name("nx.com"), RRType::kA, 300, SimTime::zero());
  lane2.insert_negative(name("nx.com"), RRType::kA, 300, SimTime::zero());
  EXPECT_EQ(pool->size(), 1u);
  // A different negative TTL or type is different content.
  lane2.insert_negative(name("nx.com"), RRType::kA, 120, SimTime::zero());
  lane2.insert_negative(name("nx.com"), RRType::kCNAME, 300, SimTime::zero());
  EXPECT_EQ(pool->size(), 3u);
  const auto hit1 = lane1.lookup(name("nx.com"), RRType::kA, SimTime::from_seconds(100));
  const auto hit2 = lane2.lookup(name("nx.com"), RRType::kA, SimTime::from_seconds(100));
  ASSERT_TRUE(hit1.has_value());
  ASSERT_TRUE(hit2.has_value());
  EXPECT_TRUE(hit1->negative());
  EXPECT_TRUE(hit2->negative());
  EXPECT_TRUE(hit1->records().empty());
  // lane2's overwrite to TTL 120 holds; lane1 keeps its 300 s entry.
  EXPECT_TRUE(lane1.lookup(name("nx.com"), RRType::kA, SimTime::from_seconds(200)));
  EXPECT_FALSE(lane2.lookup(name("nx.com"), RRType::kA, SimTime::from_seconds(200)));
  // A positive entry under the same key replaces the negative one.
  lane1.insert(name("nx.com"), RRType::kA, {a_record("nx.com", 60)},
               SimTime::from_seconds(200));
  const auto positive =
      lane1.lookup(name("nx.com"), RRType::kA, SimTime::from_seconds(201));
  ASSERT_TRUE(positive.has_value());
  EXPECT_FALSE(positive->negative());
  EXPECT_EQ(lane1.size(), 1u);
}

TEST(Cache, ExpiredOnLookupAndPurgeOnInsertCounts) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 10)},
               SimTime::zero());
  cache.insert(name("b.com"), RRType::kA, {a_record("b.com", 20)},
               SimTime::zero());
  cache.insert(name("c.com"), RRType::kA, {a_record("c.com", 30)},
               SimTime::zero());
  // Expired on lookup: erased, counted as an expiry and a miss.
  EXPECT_FALSE(cache.lookup(name("a.com"), RRType::kA, SimTime::from_seconds(25)));
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 2u);
  // Lookups never purge other keys: b.com is dead but still held.
  EXPECT_TRUE(cache.lookup(name("c.com"), RRType::kA, SimTime::from_seconds(25)));
  EXPECT_EQ(cache.size(), 2u);
  // Any insert purges every dead entry first.
  cache.insert(name("d.com"), RRType::kA, {a_record("d.com", 30)},
               SimTime::from_seconds(30));
  EXPECT_EQ(cache.stats().expired_evictions, 3u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, InsertionNumberWrapKeepsEvictionOrder) {
  // 40 entries in five expiry groups, so the heap is not in insertion
  // order; the counter wraps while the index is live, which renumbers
  // and moves every slot.
  Cache cache(/*max_entries=*/40);
  const auto host = [](int i) { return "h" + std::to_string(i) + ".com"; };
  const auto put = [&](int i, uint32_t ttl) {
    cache.insert(name(host(i).c_str()), RRType::kA,
                 {a_record(host(i).c_str(), ttl)}, SimTime::zero());
  };
  const auto group_ttl = [](int i) {
    return static_cast<uint32_t>(140 - (i % 5) * 10);
  };
  for (int i = 0; i < 35; ++i) put(i, group_ttl(i));
  CachePeer::set_next_order(cache, std::numeric_limits<uint32_t>::max() - 2);
  for (int i = 35; i < 40; ++i) put(i, group_ttl(i));
  ASSERT_EQ(cache.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(cache.lookup(name(host(i).c_str()), RRType::kA, SimTime::zero()))
        << host(i);
  }
  // The soonest group (TTL 100: i = 4, 9, ..., 39) leaves in insertion
  // order, across the wrap.
  put(40, 1000);
  put(41, 1000);
  EXPECT_EQ(cache.stats().capacity_evictions, 2u);
  EXPECT_FALSE(cache.lookup(name(host(4).c_str()), RRType::kA, SimTime::zero()));
  EXPECT_FALSE(cache.lookup(name(host(9).c_str()), RRType::kA, SimTime::zero()));
  EXPECT_TRUE(cache.lookup(name(host(14).c_str()), RRType::kA, SimTime::zero()));
  for (int i = 42; i < 48; ++i) put(i, 1000);  // the group's other six
  EXPECT_FALSE(cache.lookup(name(host(39).c_str()), RRType::kA, SimTime::zero()));
  EXPECT_TRUE(cache.lookup(name(host(3).c_str()), RRType::kA, SimTime::zero()));
  put(48, 1000);  // next: the TTL-110 group's first, h3.com
  EXPECT_FALSE(cache.lookup(name(host(3).c_str()), RRType::kA, SimTime::zero()));
  EXPECT_TRUE(cache.lookup(name(host(8).c_str()), RRType::kA, SimTime::zero()));
}

TEST(Cache, MissesAbsentKeysAtEveryFill) {
  // The index must always keep a free bucket, or probing for an absent
  // key would never stop.
  Cache cache;
  for (int i = 0; i < 300; ++i) {
    const std::string host = "k" + std::to_string(i) + ".com";
    cache.insert(name(host.c_str()), RRType::kA, {a_record(host.c_str(), 60)},
                 SimTime::zero());
    ASSERT_FALSE(cache.lookup(name("absent.com"), RRType::kA, SimTime::zero()))
        << i;
    ASSERT_TRUE(cache.lookup(name(host.c_str()), RRType::kA, SimTime::zero()));
  }
}

TEST(Cache, ContentDifferingOnlyInRdataNamesStaysDistinct) {
  // The pool's content hash skips names inside rdata; equality must not.
  auto pool = std::make_shared<RrsetPool>();
  Cache lane1(Cache::kDefaultMaxEntries, pool);
  Cache lane2(Cache::kDefaultMaxEntries, pool);
  const ResourceRecord to_x =
      ResourceRecord::cname(name("www.a.com"), name("x.cdn.net"), 60);
  const ResourceRecord to_y =
      ResourceRecord::cname(name("www.a.com"), name("y.cdn.net"), 60);
  lane1.insert(name("www.a.com"), RRType::kCNAME, {to_x}, SimTime::zero());
  lane2.insert(name("www.a.com"), RRType::kCNAME, {to_y}, SimTime::zero());
  EXPECT_EQ(pool->size(), 2u);
  EXPECT_EQ(lane1.lookup(name("www.a.com"), RRType::kCNAME, SimTime::zero())
                ->records(),
            std::vector<ResourceRecord>{to_x});
  EXPECT_EQ(lane2.lookup(name("www.a.com"), RRType::kCNAME, SimTime::zero())
                ->records(),
            std::vector<ResourceRecord>{to_y});
}

TEST(Cache, PooledContentIsChargedOnce) {
  auto pool = std::make_shared<RrsetPool>();
  Cache lane1(Cache::kDefaultMaxEntries, pool);
  Cache lane2(Cache::kDefaultMaxEntries, pool);
  // A wide TXT rrset whose strings spill to the heap.
  const std::vector<ResourceRecord> wide = {ResourceRecord::txt(
      name("txt.example.com"), {std::string(200, 'x'), std::string(300, 'y')},
      60)};
  lane1.insert(name("txt.example.com"), RRType::kTXT, wide, SimTime::zero());
  const size_t pool_bytes = pool->approx_bytes();
  const size_t lane_bytes = lane1.approx_bytes();
  EXPECT_GT(pool_bytes, 500u);
  lane2.insert(name("txt.example.com"), RRType::kTXT, wide, SimTime::zero());
  // The second lane adds slots of its own, not a second copy.
  EXPECT_EQ(pool->approx_bytes(), pool_bytes);
  EXPECT_EQ(lane2.approx_bytes(), lane_bytes);
  EXPECT_LT(lane_bytes, 100u);
}

// --- reference model ---------------------------------------------------------

/// The pre-interning cache, kept as the specification: a key map plus
/// an insertion counter, with linear scans for expiry and eviction.
class ReferenceCache {
 public:
  struct Hit {
    bool negative;
    std::vector<ResourceRecord> records;
    uint32_t elapsed_s;
  };

  explicit ReferenceCache(size_t max_entries) : max_entries_(max_entries) {}

  std::optional<Hit> lookup(const DnsName& key, RRType type, SimTime now,
                            uint32_t scope) {
    const auto it = entries_.find(Key{key.to_string(), type, scope});
    if (it == entries_.end()) {
      ++stats.misses;
      return std::nullopt;
    }
    if (it->second.expires <= now) {
      entries_.erase(it);
      ++stats.expired_evictions;
      ++stats.misses;
      return std::nullopt;
    }
    ++stats.hits;
    return Hit{it->second.negative, it->second.records,
               static_cast<uint32_t>((now - it->second.inserted).seconds())};
  }

  void insert(const DnsName& key, RRType type,
              std::vector<ResourceRecord> records, SimTime now,
              uint32_t scope, bool negative, uint32_t ttl) {
    if (ttl == 0 || max_entries_ == 0) return;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.expires <= now) {
        it = entries_.erase(it);
        ++stats.expired_evictions;
      } else {
        ++it;
      }
    }
    const Key k{key.to_string(), type, scope};
    if (entries_.find(k) == entries_.end()) {
      while (entries_.size() >= max_entries_) {
        auto victim = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
          if (std::tie(it->second.expires, it->second.order) <
              std::tie(victim->second.expires, victim->second.order)) {
            victim = it;
          }
        }
        entries_.erase(victim);
        ++stats.capacity_evictions;
      }
    }
    entries_[k] = Entry{std::move(records), negative, now,
                        now + SimTime::from_seconds(ttl), next_order_++};
  }

  size_t size() const { return entries_.size(); }
  CacheStats stats;

 private:
  using Key = std::tuple<std::string, RRType, uint32_t>;
  struct Entry {
    std::vector<ResourceRecord> records;
    bool negative;
    SimTime inserted;
    SimTime expires;
    uint64_t order;
  };
  size_t max_entries_;
  uint64_t next_order_ = 0;
  std::map<Key, Entry> entries_;
};

void expect_same_stats(const CacheStats& got, const CacheStats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.expired_evictions, want.expired_evictions);
  EXPECT_EQ(got.capacity_evictions, want.capacity_evictions);
}

/// Random lookups, inserts and negative inserts against `cache` and the
/// reference model; every result, count and size must agree.
void run_against_reference(size_t max_entries, int keys, uint64_t seed) {
  SCOPED_TRACE("max_entries=" + std::to_string(max_entries) +
               " keys=" + std::to_string(keys));
  net::Rng rng(seed);
  auto pool = std::make_shared<RrsetPool>();
  Cache cache(max_entries, pool);
  ReferenceCache reference(max_entries);
  std::vector<DnsName> names;
  for (int i = 0; i < keys; ++i) {
    names.push_back(name(("k" + std::to_string(i) + ".example.com").c_str()));
  }
  static constexpr uint32_t kTtls[] = {0, 5, 10, 30, 30, 60, 300, 900};
  const auto pick = [&](int lo, int hi) {
    return static_cast<int>(rng.uniform_u64(static_cast<uint64_t>(lo),
                                            static_cast<uint64_t>(hi)));
  };
  SimTime now = SimTime::zero();
  for (int op = 0; op < 20000; ++op) {
    if (rng.bernoulli(0.3)) {
      now += SimTime::from_seconds(static_cast<double>(pick(0, 12)));
    }
    const DnsName& key = names[static_cast<size_t>(pick(0, keys - 1))];
    const RRType type = rng.bernoulli(0.8) ? RRType::kA : RRType::kCNAME;
    const auto scope = static_cast<uint32_t>(pick(0, 1));
    const double draw = rng.next_double();
    if (draw < 0.5) {
      const auto got = cache.lookup(key, type, now, scope);
      const auto want = reference.lookup(key, type, now, scope);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
      if (got) {
        EXPECT_EQ(got->negative(), want->negative);
        EXPECT_EQ(got->records(), want->records);
        EXPECT_EQ(got->elapsed_s(), want->elapsed_s);
      }
    } else if (draw < 0.9) {
      const uint32_t ttl = kTtls[pick(0, 7)];
      const auto address =
          net::Ipv4Addr{10, 0, 0, static_cast<uint8_t>(pick(1, 3))};
      // CNAME content differs only in its target name, which the pool's
      // content hash leaves to operator==.
      const std::vector<ResourceRecord> records =
          type == RRType::kCNAME
              ? std::vector<ResourceRecord>{ResourceRecord::cname(
                    key, names[static_cast<size_t>(pick(0, keys - 1))], ttl)}
              : std::vector<ResourceRecord>{
                    ResourceRecord::a(key, address, ttl),
                    ResourceRecord::a(key, net::Ipv4Addr{10, 0, 1, 1}, ttl + 5)};
      cache.insert(key, type, records, now, scope);
      reference.insert(key, type, records, now, scope, false,
                       std::min(ttl, Cache::kMaxTtlS));
    } else {
      const uint32_t ttl = kTtls[pick(0, 7)];
      cache.insert_negative(key, type, ttl, now, scope);
      reference.insert(key, type, {}, now, scope, true,
                       std::min(ttl, Cache::kMaxTtlS));
    }
    ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
  }
  expect_same_stats(cache.stats(), reference.stats);
}

TEST(Cache, MatchesReferenceModelWhenScanning) {
  run_against_reference(/*max_entries=*/Cache::kDefaultMaxEntries, /*keys=*/6, 1);
  run_against_reference(/*max_entries=*/3, /*keys=*/8, 2);
  run_against_reference(/*max_entries=*/1, /*keys=*/4, 3);
}

TEST(Cache, MatchesReferenceModelWithIndex) {
  // Far more live keys than Cache::kScanLimit, so the hash index grows,
  // shrinks under purges and is kept in step with every heap move.
  run_against_reference(/*max_entries=*/Cache::kDefaultMaxEntries, /*keys=*/300, 4);
  run_against_reference(/*max_entries=*/100, /*keys=*/300, 5);
  run_against_reference(/*max_entries=*/40, /*keys=*/60, 6);
}

// --- concurrency ---------------------------------------------------------------

TEST(RrsetPoolConcurrency, EightLanesInternSameAndDistinctContent) {
  // Lanes of one resolver run on different workers: eight threads, each
  // with its own lane cache, intern content shared by all of them and
  // content private to each, round after round.
  constexpr size_t kThreads = 8;
  constexpr size_t kNames = 16;
  constexpr int kRounds = 200;
  auto pool = std::make_shared<RrsetPool>();
  std::vector<std::vector<const std::vector<ResourceRecord>*>> seen(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Cache lane(Cache::kDefaultMaxEntries, pool);
      for (int round = 0; round < kRounds; ++round) {
        const SimTime now = SimTime::from_seconds(round * 60.0);
        for (size_t i = 0; i < kNames; ++i) {
          const DnsName shared = name(("s" + std::to_string(i) + ".com").c_str());
          const DnsName own = name(
              ("p" + std::to_string(i) + ".t" + std::to_string(t) + ".com").c_str());
          lane.insert(shared, RRType::kA, {a_record("shared.com", 30)}, now);
          lane.insert(own, RRType::kA,
                      {ResourceRecord::a(own, net::Ipv4Addr{10, 0, 0, 1}, 30)},
                      now);
          const auto hit = lane.lookup(shared, RRType::kA, now);
          if (hit && round == kRounds - 1) seen[t].push_back(&hit->records());
          EXPECT_TRUE(lane.lookup(own, RRType::kA, now));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(pool->size(), kNames + kThreads * kNames);
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), kNames);
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
}

TEST(Cache, HitRateAccounting) {
  Cache cache;
  cache.insert(name("a.com"), RRType::kA, {a_record("a.com", 60)},
               SimTime::zero());
  cache.lookup(name("a.com"), RRType::kA, SimTime::zero());
  cache.lookup(name("b.com"), RRType::kA, SimTime::zero());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

}  // namespace
}  // namespace curtain::dns
