// Remaining net-substrate corners: route invalidation, route trees
// against a per-pair reference router, concurrent first touch, metro
// catalogs, world-level wiring invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <queue>
#include <set>
#include <thread>

#include "core/world.h"
#include "net/topology.h"

namespace curtain::net {

/// The reference router: one early-exit Dijkstra per (source, target)
/// pair and a per-hop scan for the fastest parallel link — the routing
/// the shared shortest-path trees must reproduce exactly.
struct TopologyPeer {
  static std::vector<NodeId> route(const Topology& topo, NodeId from,
                                   NodeId to) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(topo.nodes_.size(), kInf);
    std::vector<NodeId> prev(topo.nodes_.size(), kInvalidNode);
    using Entry = std::pair<double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    dist[from] = 0.0;
    heap.emplace(0.0, from);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      if (u == to) break;
      for (const Topology::Edge& edge : topo.adjacency_[u]) {
        const double nd =
            d + topo.links_[edge.link_index].latency.typical_ms();
        if (nd < dist[edge.peer]) {
          dist[edge.peer] = nd;
          prev[edge.peer] = u;
          heap.emplace(nd, edge.peer);
        }
      }
    }
    std::vector<NodeId> path;
    if (dist[to] == kInf) return path;
    for (NodeId at = to; at != kInvalidNode; at = prev[at]) {
      path.push_back(at);
      if (at == from) break;
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

  static const Link& fastest_link(const Topology& topo, NodeId a, NodeId b) {
    const Link* best = nullptr;
    for (const Topology::Edge& edge : topo.adjacency_[a]) {
      if (edge.peer != b) continue;
      const Link& link = topo.links_[edge.link_index];
      if (best == nullptr ||
          link.latency.typical_ms() < best->latency.typical_ms()) {
        best = &link;
      }
    }
    return *best;
  }

  static std::optional<double> transport_rtt_ms(const Topology& topo,
                                                NodeId from, NodeId to,
                                                Rng& rng) {
    const std::vector<NodeId> path = route(topo, from, to);
    if (path.empty()) return std::nullopt;
    double rtt = topo.node(to).processing.sample(rng);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const Link& link = fastest_link(topo, path[i], path[i + 1]);
      rtt += link.latency.sample(rng) + link.latency.sample(rng);
    }
    return rtt;
  }
};

namespace {

TEST(TopologyCache, RoutesRecomputedAfterMutation) {
  Topology topo;
  auto add = [&topo](const char* name) {
    Node node;
    node.processing = LatencyModel::fixed(0.0);
    node.name = name;
    return topo.add_node(node);
  };
  const NodeId a = add("a");
  const NodeId b = add("b");
  const NodeId c = add("c");
  topo.add_link(a, b, LatencyModel::fixed(10.0));
  topo.add_link(b, c, LatencyModel::fixed(10.0));
  EXPECT_EQ(topo.route(a, c).size(), 3u);
  // A new shortcut must invalidate the cached a->c route.
  topo.add_link(a, c, LatencyModel::fixed(5.0));
  EXPECT_EQ(topo.route(a, c).size(), 2u);
}

TEST(TopologyCache, RouteIsDirectional) {
  Topology topo;
  auto add = [&topo](const char* name) {
    Node node;
    node.name = name;
    return topo.add_node(node);
  };
  const NodeId x = add("x");
  const NodeId y = add("y");
  topo.add_link(x, y, LatencyModel::fixed(1.0));
  EXPECT_EQ(topo.route(x, y).front(), x);
  EXPECT_EQ(topo.route(y, x).front(), y);
}

// Every source a campaign routes from: gateways, resolvers, vantage hosts.
std::vector<NodeId> route_sources(const Topology& topo) {
  std::vector<NodeId> sources;
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    const NodeKind kind = topo.node(id).kind;
    if (kind == NodeKind::kGateway || kind == NodeKind::kResolver ||
        kind == NodeKind::kVantagePoint) {
      sources.push_back(id);
    }
  }
  return sources;
}

// A fixed sample of targets spread across the whole node table.
std::vector<NodeId> route_targets(const Topology& topo) {
  std::vector<NodeId> targets;
  for (NodeId id = 0; id < topo.node_count(); id += 17) targets.push_back(id);
  return targets;
}

TEST(RouteTree, MatchesPerPairReferenceOnPaperWorld) {
  const core::World world(core::Scenario::paper_2014());
  const Topology& topo = world.topology();
  const std::vector<NodeId> sources = route_sources(topo);
  const std::vector<NodeId> targets = route_targets(topo);
  ASSERT_GT(sources.size(), 100u);
  ASSERT_GT(targets.size(), 40u);
  size_t mismatches = 0;
  for (const NodeId from : sources) {
    for (const NodeId to : targets) {
      if (topo.route(from, to) == TopologyPeer::route(topo, from, to)) continue;
      if (++mismatches <= 5) {
        ADD_FAILURE() << "route " << topo.node(from).name << " -> "
                      << topo.node(to).name << " differs from the reference";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(RouteTree, ParallelLinksDrawLikeTheReference) {
  Topology topo;
  auto add = [&topo](const char* name) {
    Node node;
    node.name = name;
    node.processing = LatencyModel::jittered(0.5, 0.4);
    return topo.add_node(node);
  };
  const NodeId a = add("a");
  const NodeId b = add("b");
  const NodeId c = add("c");
  const NodeId d = add("d");
  // Equal typical latency, different draws: the first in adjacency order
  // must carry the traffic.
  topo.add_link(a, b, LatencyModel::jittered(5.0, 0.1));
  topo.add_link(b, a, LatencyModel::jittered(5.0, 0.9));
  // Unequal: the faster later link wins, an equally fast one after it
  // does not.
  topo.add_link(b, c, LatencyModel::jittered(4.0, 0.5));
  topo.add_link(c, b, LatencyModel::jittered(3.0, 0.5));
  topo.add_link(b, c, LatencyModel::wan(1.0, 2.0, 0.7));
  // A slower detour that must never be taken.
  topo.add_link(a, d, LatencyModel::fixed(30.0));
  topo.add_link(c, d, LatencyModel::jittered(2.0, 0.3));

  for (NodeId from = a; from <= d; ++from) {
    for (NodeId to = a; to <= d; ++to) {
      EXPECT_EQ(topo.route(from, to), TopologyPeer::route(topo, from, to));
      Rng tree_rng(20141105 + from * 4 + to);
      Rng reference_rng(20141105 + from * 4 + to);
      for (int draw = 0; draw < 32; ++draw) {
        EXPECT_EQ(topo.transport_rtt_ms(from, to, tree_rng),
                  TopologyPeer::transport_rtt_ms(topo, from, to,
                                                 reference_rng))
            << topo.node(from).name << " -> " << topo.node(to).name
            << " draw " << draw;
      }
    }
  }
}

TEST(RouteTree, LongChainSpillsPastTheInlineHopBuffer) {
  // 40 hops: longer than the walk's inline buffer.
  Topology topo;
  std::vector<NodeId> chain;
  for (int i = 0; i <= 40; ++i) {
    Node node;
    node.name = "n" + std::to_string(i);
    chain.push_back(topo.add_node(node));
    if (i > 0) {
      topo.add_link(chain[chain.size() - 2], chain.back(),
                    LatencyModel::jittered(1.0 + i, 0.3));
    }
  }
  EXPECT_EQ(topo.route(chain.front(), chain.back()), chain);
  Rng tree_rng(7);
  Rng reference_rng(7);
  EXPECT_EQ(topo.transport_rtt_ms(chain.front(), chain.back(), tree_rng),
            TopologyPeer::transport_rtt_ms(topo, chain.front(), chain.back(),
                                           reference_rng));
}

TEST(RouteTreeConcurrency, FirstTouchFromEightThreadsAgrees) {
  // A fresh world has built no trees, so every thread races to build and
  // publish the same ones.
  const core::World world(core::Scenario::paper_2014());
  const Topology& topo = world.topology();
  const std::vector<NodeId> sources = route_sources(topo);
  const std::vector<NodeId> targets = route_targets(topo);
  constexpr size_t kThreads = 8;
  std::vector<std::vector<std::vector<NodeId>>> routes(kThreads);
  std::vector<std::vector<std::optional<double>>> rtts(kThreads);
  std::atomic<size_t> waiting{kThreads};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      for (const NodeId from : sources) {
        Rng rng(from);
        for (const NodeId to : targets) {
          routes[t].push_back(topo.route(from, to));
          rtts[t].push_back(topo.transport_rtt_ms(from, to, rng));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(routes[t] == routes[0]) << "thread " << t;
    EXPECT_TRUE(rtts[t] == rtts[0]) << "thread " << t;
  }
  size_t reachable = 0;
  for (const auto& route : routes[0]) {
    if (!route.empty()) ++reachable;
  }
  EXPECT_EQ(reachable, routes[0].size());
}

TEST(Metros, DistinctNamesAndSaneCoordinates) {
  std::set<std::string> names;
  for (const auto* list : {&us_metros(), &kr_metros(), &world_metros()}) {
    for (const auto& metro : *list) {
      EXPECT_GE(metro.location.lat_deg, -60.0);
      EXPECT_LE(metro.location.lat_deg, 72.0);
      EXPECT_GE(metro.location.lon_deg, -180.0);
      EXPECT_LE(metro.location.lon_deg, 180.0);
      names.insert(metro.name);
    }
  }
  EXPECT_GT(names.size(), 30u);
}

class WorldWiringTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new core::World(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static core::World* world_;
};

core::World* WorldWiringTest::world_ = nullptr;

TEST_F(WorldWiringTest, EveryAddressableNodeIsReachableFromVantage) {
  // Transport-level connectivity (firewalls aside) must be total: DNS and
  // HTTP go everywhere.
  auto& topo = world_->topology();
  net::Rng rng(1);
  size_t addressable = 0;
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    if (topo.node(id).ip.is_unspecified()) continue;
    ++addressable;
    EXPECT_TRUE(
        topo.transport_rtt_ms(world_->vantage_node(), id, rng).has_value())
        << topo.node(id).name;
  }
  EXPECT_GT(addressable, 500u);
}

TEST_F(WorldWiringTest, IpUniquenessAcrossTheWorld) {
  auto& topo = world_->topology();
  std::set<uint32_t> seen;
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    const Ipv4Addr ip = topo.node(id).ip;
    if (ip.is_unspecified()) continue;
    EXPECT_TRUE(seen.insert(ip.value()).second)
        << "duplicate " << ip.to_string() << " at " << topo.node(id).name;
  }
}

TEST_F(WorldWiringTest, NearestBackboneIsActuallyNearest) {
  const GeoPoint denver{39.74, -104.99};
  const auto& chosen =
      world_->topology().node(world_->nearest_backbone(denver));
  EXPECT_EQ(chosen.name, "ix-Denver");
}

TEST_F(WorldWiringTest, RegistryCoversAllResolverAddresses) {
  // Every resolver-ish address a client might query must dispatch.
  for (const auto& carrier : world_->carriers()) {
    for (const auto& client : carrier->client_resolvers()) {
      EXPECT_NE(world_->registry().find(client->ip()), nullptr);
    }
    for (const auto& external : carrier->external_resolvers()) {
      EXPECT_NE(world_->registry().find(external->ip()), nullptr);
    }
  }
  EXPECT_NE(world_->registry().find(Ipv4Addr{8, 8, 8, 8}), nullptr);
  EXPECT_NE(world_->registry().find(Ipv4Addr{208, 67, 222, 222}), nullptr);
  EXPECT_NE(world_->registry().find(world_->root_dns_ip()), nullptr);
}

TEST_F(WorldWiringTest, VantageCannotPingSubscriberGateways) {
  // NAT/firewall: carrier-internal hosts are unreachable to probes.
  auto& topo = world_->topology();
  net::Rng rng(2);
  auto& att = world_->carrier(0);
  const PingResult result =
      topo.ping(world_->vantage_node(), att.gateway_node(0), rng);
  EXPECT_FALSE(result.responded);
  EXPECT_EQ(result.failure, PingResult::Failure::kFirewalled);
}

}  // namespace
}  // namespace curtain::net
