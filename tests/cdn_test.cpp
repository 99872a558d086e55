#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "cdn/domains.h"
#include "core/world.h"
#include "dns/resolver.h"

namespace curtain::cdn {

// Reads the mapping inputs a provider was given.
struct CdnProviderPeer {
  static std::vector<uint32_t> hinted_slash24s(const CdnProvider& provider) {
    std::vector<uint32_t> out;
    for (const auto& entry : provider.prefix_hints_) out.push_back(entry.first);
    return out;
  }
  static const CdnProvider::Hint* hint(const CdnProvider& provider,
                                       uint32_t slash24) {
    const auto it = provider.prefix_hints_.find(slash24);
    return it == provider.prefix_hints_.end() ? nullptr : &it->second;
  }
  /// The WHOIS country registered for a /24; "US" when none is.
  static std::string country(const CdnProvider& provider, uint32_t slash24) {
    const auto it = provider.prefix_pools_.find(slash24);
    if (it == provider.prefix_pools_.end()) return "US";
    return provider.country_pools_[static_cast<size_t>(it->second)].country;
  }
};

namespace {

// The /24 -> cluster mapping recomputed from scratch on every call, as
// CdnProvider did before it kept its tables: a hinted /24 scans every
// cluster of the hint's country for the nearest (first wins ties); an
// opaque /24 hashes over a freshly built pool of its country's clusters.
int reference_cluster(const CdnProvider& provider, uint64_t build_seed,
                      net::Ipv4Addr resolver) {
  const uint32_t slash24 = resolver.slash24().value();
  const auto& clusters = provider.clusters();
  if (const auto* hint = CdnProviderPeer::hint(provider, slash24)) {
    int best = clusters.front().index;
    double best_distance = std::numeric_limits<double>::infinity();
    for (const auto& cluster : clusters) {
      if (!hint->country.empty() && cluster.country != hint->country) continue;
      const double d = net::distance_km(hint->location, cluster.location);
      if (d < best_distance) {
        best_distance = d;
        best = cluster.index;
      }
    }
    return best;
  }
  const uint64_t seed =
      net::mix_key(build_seed, net::hash_tag(provider.name()));
  const uint64_t h = net::mix_key(seed, slash24);
  const std::string country = CdnProviderPeer::country(provider, slash24);
  std::vector<int> pool;
  for (const auto& cluster : clusters) {
    if (cluster.country == country) pool.push_back(cluster.index);
  }
  return pool[h % pool.size()];
}

// Every /24 the mapping sees in a campaign and then some: each hinted /24
// (gateway pools, carrier external resolvers, public DNS sites), the
// client-facing resolvers' opaque /24s, and `extra` more.
std::vector<net::Ipv4Addr> mapping_resolvers(
    const core::World& world, const CdnProvider& provider,
    const std::vector<net::Ipv4Addr>& extra) {
  std::vector<net::Ipv4Addr> out;
  for (const uint32_t slash24 : CdnProviderPeer::hinted_slash24s(provider)) {
    out.push_back(net::Ipv4Addr(slash24 | 7u));
  }
  for (const auto& carrier : world.carriers()) {
    for (const auto& resolver : carrier->client_resolvers()) {
      out.push_back(resolver->ip());
    }
  }
  out.insert(out.end(), extra.begin(), extra.end());
  return out;
}

class CdnTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new core::World(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static core::World* world_;
  net::Rng rng_{31337};
};

core::World* CdnTest::world_ = nullptr;

TEST_F(CdnTest, NineStudyDomains) {
  ASSERT_EQ(study_domains().size(), 9u);
  bool has_yelp = false;
  bool has_buzzfeed = false;
  for (const auto& domain : study_domains()) {
    has_yelp |= domain.host == "m.yelp.com";        // Table 2 survivor
    has_buzzfeed |= domain.host == "www.buzzfeed.com";  // Fig. 10's domain
  }
  EXPECT_TRUE(has_yelp);
  EXPECT_TRUE(has_buzzfeed);
}

TEST_F(CdnTest, EveryDomainRidesAKnownCdn) {
  const auto cdns = study_cdn_names();
  for (const auto& domain : study_domains()) {
    EXPECT_NE(std::find(cdns.begin(), cdns.end(), domain.cdn), cdns.end())
        << domain.host;
  }
}

TEST_F(CdnTest, ClustersCoverUsAndKrMetros) {
  const auto& provider = world_->cdn("curtaincdn");
  ASSERT_EQ(provider.clusters().size(), 10u);  // 8 US + 2 KR POPs
  size_t us = 0;
  size_t kr = 0;
  for (const auto& cluster : provider.clusters()) {
    (cluster.country == "US" ? us : kr) += 1;
  }
  EXPECT_EQ(us, 8u);
  EXPECT_EQ(kr, 2u);
  std::set<uint32_t> prefixes;
  for (const auto& cluster : provider.clusters()) {
    EXPECT_FALSE(cluster.replica_ips.empty());
    for (const auto ip : cluster.replica_ips) {
      EXPECT_TRUE(cluster.prefix.contains(ip));  // one /24 per cluster
    }
    prefixes.insert(cluster.prefix.address().value());
  }
  EXPECT_EQ(prefixes.size(), provider.clusters().size());
}

TEST_F(CdnTest, OpaquePrefixMappingIsSticky) {
  const auto& provider = world_->cdn("curtaincdn");
  const net::Ipv4Addr resolver{100, 77, 3, 10};
  const auto& first = provider.cluster_for_resolver(resolver);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(provider.cluster_for_resolver(resolver).index, first.index);
  }
  // Same /24, different host: same cluster (Fig. 10's aggregation).
  EXPECT_EQ(provider.cluster_for_resolver(net::Ipv4Addr{100, 77, 3, 99}).index,
            first.index);
}

TEST_F(CdnTest, DifferentSlash24sUsuallyMapDifferently) {
  const auto& provider = world_->cdn("curtaincdn");
  std::set<int> clusters;
  for (int i = 0; i < 32; ++i) {
    clusters.insert(provider
                        .cluster_for_resolver(net::Ipv4Addr(
                            100, 80, static_cast<uint8_t>(i), 1))
                        .index);
  }
  EXPECT_GT(clusters.size(), 5u);
}

TEST_F(CdnTest, HintedPrefixMapsNearest) {
  auto& provider = world_->cdn("curtaincdn");
  const net::GeoPoint seattle{47.61, -122.33};
  provider.add_prefix_hint(net::Prefix(net::Ipv4Addr{203, 0, 113, 0}, 24),
                           seattle, "US");
  const auto& cluster =
      provider.cluster_for_resolver(net::Ipv4Addr{203, 0, 113, 7});
  EXPECT_EQ(cluster.metro, "Seattle");
}

TEST_F(CdnTest, CountryOnlyPrefixStaysInCountry) {
  auto& provider = world_->cdn("curtaincdn");
  provider.add_prefix_country(net::Prefix(net::Ipv4Addr{198, 18, 5, 0}, 24),
                              "KR");
  const auto& cluster =
      provider.cluster_for_resolver(net::Ipv4Addr{198, 18, 5, 1});
  EXPECT_EQ(cluster.country, "KR");
}

TEST_F(CdnTest, NearestClusterGeometry) {
  const auto& provider = world_->cdn("curtaincdn");
  EXPECT_EQ(provider.nearest_cluster({40.71, -74.01}, "US").metro, "New York");
  EXPECT_EQ(provider.nearest_cluster({37.57, 126.98}, "KR").metro, "Seoul");
}

TEST_F(CdnTest, ClusterOfReplicaInverse) {
  const auto& provider = world_->cdn("curtaincdn");
  const auto& cluster = provider.clusters().front();
  const auto* found = provider.cluster_of_replica(cluster.replica_ips[0]);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->index, cluster.index);
  EXPECT_EQ(provider.cluster_of_replica(net::Ipv4Addr{1, 1, 1, 1}), nullptr);
}

// End-to-end resolution through a real recursive resolver: the CDN ADNS
// must answer with replicas of the cluster mapped to *that resolver*.
TEST_F(CdnTest, AdnsSelectsByResolverAddress) {
  auto& topo = world_->topology();
  net::Node node;
  node.name = "probe-resolver";
  node.location = {47.61, -122.33};
  const net::NodeId id = topo.add_node(node);
  topo.add_link(id, world_->nearest_backbone(node.location),
                net::LatencyModel::fixed(1.0));
  dns::RecursiveResolver resolver("probe", id, net::Ipv4Addr{203, 0, 114, 1},
                                  &topo, &world_->registry(),
                                  world_->root_dns_ip());

  const auto result =
      resolver.resolve(*dns::DnsName::parse("m.yelp.com"), dns::RRType::kA,
                       net::SimTime::zero(), rng_);
  ASSERT_EQ(result.rcode, dns::Rcode::kNoError);
  const auto addresses = result.addresses();
  ASSERT_FALSE(addresses.empty());

  const auto& provider = world_->cdn("curtaincdn");
  const auto& expected =
      provider.cluster_for_resolver(net::Ipv4Addr{203, 0, 114, 1});
  for (const auto address : addresses) {
    const auto* cluster = provider.cluster_of_replica(address);
    ASSERT_NE(cluster, nullptr);
    EXPECT_EQ(cluster->index, expected.index);
  }
  // The CNAME chain is present (the paper picked CNAME-fronted domains).
  EXPECT_EQ(result.answers.front().type(), dns::RRType::kCNAME);
}

TEST_F(CdnTest, ShortTtlOnReplicaAnswers) {
  auto& topo = world_->topology();
  net::Node node;
  node.name = "probe-resolver-2";
  node.location = {40.71, -74.01};
  const net::NodeId id = topo.add_node(node);
  topo.add_link(id, world_->nearest_backbone(node.location),
                net::LatencyModel::fixed(1.0));
  dns::RecursiveResolver resolver("probe2", id, net::Ipv4Addr{203, 0, 114, 2},
                                  &topo, &world_->registry(),
                                  world_->root_dns_ip());
  const auto result =
      resolver.resolve(*dns::DnsName::parse("www.buzzfeed.com"),
                       dns::RRType::kA, net::SimTime::zero(), rng_);
  for (const auto& rr : result.answers) {
    if (rr.type() == dns::RRType::kA) {
      EXPECT_LE(rr.ttl, world_->config().cdn_answer_ttl_s);
    }
  }
}

TEST_F(CdnTest, RotationVariesWithinCluster) {
  auto& topo = world_->topology();
  net::Node node;
  node.name = "probe-resolver-3";
  node.location = {41.88, -87.63};
  const net::NodeId id = topo.add_node(node);
  topo.add_link(id, world_->nearest_backbone(node.location),
                net::LatencyModel::fixed(1.0));
  dns::RecursiveResolver resolver("probe3", id, net::Ipv4Addr{203, 0, 114, 3},
                                  &topo, &world_->registry(),
                                  world_->root_dns_ip());
  std::set<uint32_t> replicas_seen;
  for (int minute = 0; minute < 60; minute += 2) {
    const auto result = resolver.resolve(
        *dns::DnsName::parse("www.amazon.com"), dns::RRType::kA,
        net::SimTime::from_seconds(minute * 60.0), rng_);
    for (const auto address : result.addresses()) {
      replicas_seen.insert(address.value());
    }
  }
  // The 30 s rotation should cycle through more than one response's worth
  // of replicas inside an hour.
  EXPECT_GT(replicas_seen.size(), 2u);
}

TEST_F(CdnTest, MappingTablesMatchReferenceModel) {
  // Opaque /24s registered to each country, and some registered nowhere.
  std::vector<net::Ipv4Addr> opaque;
  for (uint32_t i = 0; i < 48; ++i) {
    const net::Ipv4Addr address(198, 19, static_cast<uint8_t>(i), 9);
    if (i % 3 != 2) {
      for (const auto& [name, provider] : world_->cdns()) {
        provider->add_prefix_country(net::Prefix(address.slash24(), 24),
                                     i % 3 == 0 ? "US" : "KR");
      }
    }
    opaque.push_back(address);
  }
  const uint64_t seed = world_->config().seed;
  for (const auto& [name, provider] : world_->cdns()) {
    const auto resolvers = mapping_resolvers(*world_, *provider, opaque);
    ASSERT_GT(CdnProviderPeer::hinted_slash24s(*provider).size(), 300u);
    for (const net::Ipv4Addr resolver : resolvers) {
      // Twice: the first lookup may fill a table entry, the second reads it.
      for (int pass = 0; pass < 2; ++pass) {
        ASSERT_EQ(provider->cluster_for_resolver(resolver).index,
                  reference_cluster(*provider, seed, resolver))
            << name << " " << resolver.to_string() << " pass " << pass;
      }
    }
  }
}

TEST(MappingTableConcurrency, CdnHintClustersFirstTouch) {
  // Eight threads race to map every /24 of a fresh world; each must see
  // the reference cluster whichever thread filled the entry.
  core::World world;
  const CdnProvider& provider = world.cdn("curtaincdn");
  const auto resolvers = mapping_resolvers(world, provider, {});
  std::vector<int> expected;
  for (const net::Ipv4Addr resolver : resolvers) {
    expected.push_back(
        reference_cluster(provider, world.config().seed, resolver));
  }
  constexpr size_t kThreads = 8;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < resolvers.size(); ++i) {
        const size_t r =
            (i + t * resolvers.size() / kThreads) % resolvers.size();
        if (provider.cluster_for_resolver(resolvers[r]).index != expected[r]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace curtain::cdn
