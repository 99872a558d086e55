#include "net/topology.h"

#include <array>
#include <limits>
#include <memory>
#include <queue>
#include <utility>

#include "obs/metrics.h"

namespace curtain::net {

/// The route from -> to, walked off `from`'s tree (to -> from) into an
/// inline buffer and read back in forward order: hop i is the i-th node
/// after `from`, entered over link(i).
class Topology::Hops {
 public:
  Hops(const Topology& topo, NodeId from, NodeId to)
      : links_(topo.links_), parent_link_(topo.route_tree(from).parent_link) {
    for (NodeId at = to; at != from;) {
      const uint32_t link = parent_link_[at];
      if (link == RouteTree::kNoLink) {
        reachable_ = false;
        return;
      }
      if (size_ < kInline) inline_[size_] = at;
      else spill_.push_back(at);
      ++size_;
      at = links_[link].a == at ? links_[link].b : links_[link].a;
    }
  }

  bool reachable() const { return reachable_; }
  size_t size() const { return size_; }
  NodeId operator[](size_t i) const {
    const size_t k = size_ - 1 - i;  // stored to -> from
    return k < kInline ? inline_[k] : spill_[k - kInline];
  }
  const Link& link(size_t i) const { return links_[parent_link_[(*this)[i]]]; }

 private:
  static constexpr size_t kInline = 32;  // paper_2014 routes: <= 8 hops
  const std::vector<Link>& links_;
  const std::vector<uint32_t>& parent_link_;
  std::array<NodeId, kInline> inline_{};
  std::vector<NodeId> spill_;
  size_t size_ = 0;
  bool reachable_ = true;
};

Topology::Topology() {
  // Zone 0 is always the open Internet.
  zones_.push_back(Zone{"internet", /*blocks_inbound_probes=*/false});
}

Topology::~Topology() { drop_route_trees(); }

ZoneId Topology::add_zone(std::string name, bool blocks_inbound_probes) {
  zones_.push_back(Zone{std::move(name), blocks_inbound_probes});
  return static_cast<ZoneId>(zones_.size() - 1);
}

NodeId Topology::add_node(Node node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  node.id = id;
  if (!node.ip.is_unspecified()) ip_index_[node.ip.value()] = id;
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  drop_route_trees();
  route_trees_.emplace_back(nullptr);
  return id;
}

void Topology::add_link(NodeId a, NodeId b, LatencyModel latency, double loss,
                        bool tunneled) {
  const auto index = static_cast<uint32_t>(links_.size());
  links_.push_back(Link{a, b, latency, loss, tunneled});
  adjacency_[a].push_back(Edge{b, index});
  adjacency_[b].push_back(Edge{a, index});
  drop_route_trees();
}

void Topology::drop_route_trees() {
  RouteTree* tree = built_trees_.exchange(nullptr, std::memory_order_relaxed);
  while (tree != nullptr) {
    route_trees_[tree->source].store(nullptr, std::memory_order_relaxed);
    delete std::exchange(tree, tree->next_built);
  }
}

NodeId Topology::find_by_ip(Ipv4Addr ip) const {
  const auto it = ip_index_.find(ip.value());
  return it == ip_index_.end() ? kInvalidNode : it->second;
}

const Topology::RouteTree& Topology::route_tree(NodeId from) const {
  std::atomic<const RouteTree*>& slot = route_trees_[from];
  const RouteTree* published = slot.load(std::memory_order_acquire);
  if (published != nullptr) return *published;

  // Full Dijkstra over typical link latency: strict-< relaxation, edges in
  // adjacency order. A node's prev is final once it is popped, so every
  // route read off this tree equals an early-exit search for its target.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(nodes_.size(), kInf);
  std::vector<NodeId> prev(nodes_.size(), kInvalidNode);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.emplace(0.0, from);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (const Edge& edge : adjacency_[u]) {
      const double nd = d + links_[edge.link_index].latency.typical_ms();
      if (nd < dist[edge.peer]) {
        dist[edge.peer] = nd;
        prev[edge.peer] = u;
        heap.emplace(nd, edge.peer);
      }
    }
  }
  auto tree = std::make_unique<RouteTree>();
  tree->source = from;
  tree->parent_link.assign(nodes_.size(), RouteTree::kNoLink);
  // Between a node and its parent, take the first minimum-latency link in
  // the parent's adjacency order (parallel links exist).
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    for (const Edge& edge : adjacency_[u]) {
      uint32_t& chosen = tree->parent_link[edge.peer];
      if (prev[edge.peer] == u &&
          (chosen == RouteTree::kNoLink ||
           links_[edge.link_index].latency.typical_ms() <
               links_[chosen].latency.typical_ms())) {
        chosen = edge.link_index;
      }
    }
  }

  if (!slot.compare_exchange_strong(published, tree.get(),
                                    std::memory_order_acq_rel)) {
    return *published;  // another thread won; its tree is identical
  }
  tree->next_built = built_trees_.load(std::memory_order_relaxed);
  while (!built_trees_.compare_exchange_weak(tree->next_built, tree.get(),
                                             std::memory_order_release)) {
  }
  return *tree.release();
}

std::vector<NodeId> Topology::route(NodeId from, NodeId to) const {
  const Hops hops(*this, from, to);
  if (!hops.reachable()) return {};
  std::vector<NodeId> path{from};
  for (size_t i = 0; i < hops.size(); ++i) path.push_back(hops[i]);
  return path;
}

bool Topology::probe_blocked_at(ZoneId origin_zone, NodeId target) const {
  const ZoneId target_zone = nodes_[target].zone;
  return target_zone != origin_zone && zones_[target_zone].blocks_inbound_probes;
}

std::optional<double> Topology::transport_rtt_ms(NodeId from, NodeId to,
                                                 Rng& rng) const {
  const Hops hops(*this, from, to);
  if (!hops.reachable()) return std::nullopt;
  double rtt = nodes_[to].processing.sample(rng);
  for (size_t i = 0; i < hops.size(); ++i) {
    const Link& link = hops.link(i);
    rtt += link.latency.sample(rng) + link.latency.sample(rng);
  }
  return rtt;
}

PingResult Topology::ping(NodeId from, NodeId to, Rng& rng) const {
  // Handles re-bind whenever the thread's sheaf changes (obs/metrics.h):
  // pooled workers run many shards, each with its own sheaf.
  struct PingMetrics {
    obs::Counter& pings = obs::metrics().counter(
        "curtain_net_pings_total", "ping probes attempted across the topology");
    obs::Counter& firewalled = obs::metrics().counter(
        "curtain_net_probes_firewalled_total",
        "probes dropped at a NAT/firewall zone boundary");
    obs::Counter& unresponsive = obs::metrics().counter(
        "curtain_net_probes_unresponsive_total",
        "probes whose target declines to answer (reachability policy)");
  };
  static thread_local obs::SheafLocal<PingMetrics> ping_metrics;
  auto& [pings, firewalled, unresponsive] = ping_metrics.get();
  pings.inc();
  PingResult result;
  const Hops hops(*this, from, to);
  if (!hops.reachable()) {
    result.failure = PingResult::Failure::kNoRoute;
    return result;
  }
  if (!nodes_[to].answers_ping_from(nodes_[from].owner_tag)) {
    result.failure = PingResult::Failure::kUnresponsive;
    unresponsive.inc();
    return result;
  }
  const ZoneId origin_zone = nodes_[from].zone;
  double rtt = nodes_[to].processing.sample(rng);
  for (size_t i = 0; i < hops.size(); ++i) {
    const NodeId next = hops[i];
    if (probe_blocked_at(origin_zone, next)) {
      result.failure = PingResult::Failure::kFirewalled;
      firewalled.inc();
      return result;
    }
    const Link& link = hops.link(i);
    if (rng.bernoulli(link.loss) || rng.bernoulli(link.loss)) {
      result.failure = PingResult::Failure::kLoss;
      return result;
    }
    rtt += link.latency.sample(rng) + link.latency.sample(rng);
  }
  result.responded = true;
  result.rtt_ms = rtt;
  return result;
}

TracerouteResult Topology::traceroute(NodeId from, NodeId to, Rng& rng) const {
  TracerouteResult result;
  const Hops hops(*this, from, to);
  if (!hops.reachable()) return result;
  const ZoneId origin_zone = nodes_[from].zone;

  double cumulative_one_way = 0.0;
  for (size_t i = 0; i < hops.size(); ++i) {
    const NodeId hop = hops[i];
    if (probe_blocked_at(origin_zone, hop)) {
      // Firewalled ingress: probes die silently beyond this point (§4.4).
      return result;
    }
    const Link& link = hops.link(i);
    cumulative_one_way += link.latency.sample(rng);
    const bool is_destination = (hop == to);
    const Node& hop_node = nodes_[hop];

    // Interior hops of tunneled links never decrement TTL (MPLS, §4.2);
    // they simply do not appear. The destination always terminates the
    // trace even when reached through a tunnel.
    if (link.tunneled && !is_destination) continue;

    TracerouteHop entry;
    entry.node = hop;
    // A destination terminates the trace only if it answers high-TTL
    // probes at all (responds_to_traceroute) *and* would answer this
    // prober (ping policy). Resolvers that answer pings but filter
    // traceroute probes (paper Table 4) never complete a trace.
    const bool answers =
        is_destination
            ? hop_node.responds_to_traceroute &&
                  hop_node.answers_ping_from(nodes_[from].owner_tag)
            : hop_node.responds_to_traceroute;
    if (answers && !rng.bernoulli(link.loss)) {
      entry.responded = true;
      entry.rtt_ms = 2.0 * cumulative_one_way + hop_node.processing.sample(rng);
    } else {
      entry.node = kInvalidNode;  // anonymous "* * *" hop
    }
    result.hops.push_back(entry);
    if (is_destination) result.reached_destination = entry.responded;
  }
  return result;
}

}  // namespace curtain::net
