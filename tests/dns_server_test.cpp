#include <gtest/gtest.h>

#include <cmath>

#include "dns/hierarchy.h"
#include "dns/resolver.h"
#include "dns/stub.h"
#include "dns_wire_adapter.h"

namespace curtain::dns {
namespace {

DnsName name(const char* s) { return *DnsName::parse(s); }

// A miniature internet: one backbone router, a root + TLD hierarchy, two
// zones (an origin and a CDN-style dynamic zone), one recursive resolver
// and a stub client host.
class DnsWorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::Node hub;
    hub.name = "hub";
    hub.processing = net::LatencyModel::fixed(0.0);
    hub_ = topo_.add_node(hub);

    hierarchy_ = std::make_unique<DnsHierarchy>(
        [this](const std::string& host_name, net::NodeKind kind,
               const net::GeoPoint& location, net::Ipv4Addr ip) {
          return attach(host_name, kind, location, ip);
        },
        &registry_);

    // Origin zone: www.example.com CNAME edge.cdnzone.net; static A for
    // static.example.com.
    origin_ = &hierarchy_->create_zone(name("example.com"), {40, -74},
                                       net::Ipv4Addr{50, 0, 0, 1});
    origin_->add_record(ResourceRecord::cname(name("www.example.com"),
                                              name("edge.cdnzone.net"), 300));
    origin_->add_record(ResourceRecord::a(name("static.example.com"),
                                          net::Ipv4Addr{50, 1, 1, 1}, 600));
    origin_->add_record(ResourceRecord::txt(name("static.example.com"),
                                            {"hello"}, 600));

    // CDN zone with a dynamic handler answering per-resolver.
    cdn_ = &hierarchy_->create_zone(name("cdnzone.net"), {41, -87},
                                    net::Ipv4Addr{50, 0, 0, 2});
    cdn_->set_dynamic_handler(
        [this](const Question& question, net::Ipv4Addr resolver_ip,
               const std::optional<EdnsClientSubnet>&, net::SimTime, net::Rng&)
            -> std::optional<std::vector<ResourceRecord>> {
          if (question.type != RRType::kA) return std::nullopt;
          ++dynamic_calls_;
          last_seen_resolver_ = resolver_ip;
          return std::vector<ResourceRecord>{ResourceRecord::a(
              question.name, net::Ipv4Addr{60, 1, 2, 3}, 0)};
        },
        /*dynamic_ttl_s=*/30);

    const net::NodeId resolver_node = attach(
        "resolver", net::NodeKind::kResolver, {42, -88}, net::Ipv4Addr{});
    resolver_ = std::make_unique<RecursiveResolver>(
        "resolver", resolver_node, net::Ipv4Addr{9, 9, 9, 9}, &topo_,
        &registry_, hierarchy_->root_ip());
    registry_.add(resolver_.get());

    client_node_ = attach("client", net::NodeKind::kVantagePoint, {42, -87},
                          net::Ipv4Addr{7, 7, 7, 7});
  }

  net::NodeId attach(const std::string& host_name, net::NodeKind kind,
                     const net::GeoPoint& location, net::Ipv4Addr ip) {
    net::Node node;
    node.name = host_name;
    node.kind = kind;
    node.location = location;
    node.ip = ip;
    node.processing = net::LatencyModel::fixed(0.0);
    const net::NodeId id = topo_.add_node(node);
    topo_.add_link(id, hub_, net::LatencyModel::fixed(1.0));
    return id;
  }

  ServedResponse ask_auth(AuthoritativeServer& server, const char* qname,
                          RRType type, net::Ipv4Addr source = {9, 9, 9, 9}) {
    const Message query = Message::query(77, name(qname), type);
    return server.handle_query(query, source, net::SimTime::zero(), rng_);
  }

  net::Topology topo_;
  ServerRegistry registry_;
  std::unique_ptr<DnsHierarchy> hierarchy_;
  AuthoritativeServer* origin_ = nullptr;
  AuthoritativeServer* cdn_ = nullptr;
  std::unique_ptr<RecursiveResolver> resolver_;
  net::NodeId hub_ = 0;
  net::NodeId client_node_ = 0;
  net::Rng rng_{12345};
  int dynamic_calls_ = 0;
  net::Ipv4Addr last_seen_resolver_;
};

// --- authoritative behaviour -------------------------------------------

TEST_F(DnsWorldTest, AuthAnswersStaticA) {
  const auto served = ask_auth(*origin_, "static.example.com", RRType::kA);
  const auto& response = served.message;
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, Rcode::kNoError);
  EXPECT_TRUE(response->header.aa);
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(a_addresses(response->answers)[0], net::Ipv4Addr(50, 1, 1, 1));
}

TEST_F(DnsWorldTest, AuthNxdomainCarriesSoa) {
  const auto response =
      ask_auth(*origin_, "missing.example.com", RRType::kA).message;
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, Rcode::kNxDomain);
  ASSERT_EQ(response->authorities.size(), 1u);
  EXPECT_EQ(response->authorities[0].type(), RRType::kSOA);
}

TEST_F(DnsWorldTest, AuthNodataKeepsNoError) {
  // static.example.com exists (A, TXT) but has no CNAME.
  const auto response =
      ask_auth(*origin_, "static.example.com", RRType::kCNAME).message;
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, Rcode::kNoError);
  EXPECT_TRUE(response->answers.empty());
  ASSERT_EQ(response->authorities.size(), 1u);  // SOA for negative caching
}

TEST_F(DnsWorldTest, AuthOutOfZoneCnameReturnsLinkOnly) {
  const auto response =
      ask_auth(*origin_, "www.example.com", RRType::kA).message;
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(response->answers[0].type(), RRType::kCNAME);
}

TEST_F(DnsWorldTest, AuthInZoneCnameChased) {
  origin_->add_record(ResourceRecord::cname(name("alias.example.com"),
                                            name("static.example.com"), 60));
  const auto response =
      ask_auth(*origin_, "alias.example.com", RRType::kA).message;
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->answers.size(), 2u);
  EXPECT_EQ(response->answers[0].type(), RRType::kCNAME);
  EXPECT_EQ(response->answers[1].type(), RRType::kA);
}

TEST_F(DnsWorldTest, AuthRefusesForeignZones) {
  const auto response =
      ask_auth(*origin_, "www.elsewhere.org", RRType::kA).message;
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, Rcode::kRefused);
}

TEST_F(DnsWorldTest, AuthDynamicHandlerSeesResolverIp) {
  const auto served = ask_auth(*cdn_, "edge.cdnzone.net", RRType::kA,
                               net::Ipv4Addr{9, 9, 9, 9});
  const auto& response = served.message;
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(dynamic_calls_, 1);
  EXPECT_EQ(last_seen_resolver_, net::Ipv4Addr(9, 9, 9, 9));
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(response->answers[0].ttl, 30u);  // default TTL filled in
}

TEST_F(DnsWorldTest, AuthMalformedQueryGetsFormErr) {
  // Bytes that never decode, through a bytes-level front...
  WireAdapter front = WireAdapter::fronting(*origin_);
  const std::vector<uint8_t> garbage{1, 2, 3};
  const auto formerr = decode(front.handle_wire(
      garbage, net::Ipv4Addr{1, 1, 1, 1}, net::SimTime::zero(), rng_));
  ASSERT_TRUE(formerr.has_value());
  EXPECT_EQ(formerr->header.rcode, Rcode::kFormErr);
  // ...and a well-formed packet without a question, straight to the server.
  Message no_question = Message::query(44, name("static.example.com"),
                                       RRType::kA);
  no_question.questions.clear();
  const auto served = origin_->handle_query(
      no_question, net::Ipv4Addr{1, 1, 1, 1}, net::SimTime::zero(), rng_);
  ASSERT_TRUE(served.message.has_value());
  EXPECT_EQ(served.message->header.rcode, Rcode::kFormErr);
  EXPECT_EQ(served.message->header.id, 44);
  EXPECT_TRUE(served.message->answers.empty());
}

TEST_F(DnsWorldTest, WireFrontAnswersLikeTheServer) {
  // The adapter's encode -> server -> encode -> decode path is lossless.
  WireAdapter front = WireAdapter::fronting(*origin_);
  const Message query = Message::query(5, name("static.example.com"),
                                       RRType::kA);
  const auto direct = origin_->handle_query(query, net::Ipv4Addr{9, 9, 9, 9},
                                            net::SimTime::zero(), rng_);
  const auto via_wire = front.handle_query(query, net::Ipv4Addr{9, 9, 9, 9},
                                           net::SimTime::zero(), rng_);
  ASSERT_TRUE(direct.message.has_value());
  ASSERT_TRUE(via_wire.message.has_value());
  EXPECT_EQ(*via_wire.message, *direct.message);
}

#ifdef CURTAIN_DNS_WIRE_CHECK
TEST_F(DnsWorldTest, WireCheckRejectsMessagesTheCodecWouldChange) {
  // The wire carries only the ECS source prefix, so an unmasked address
  // would reach the authority differently with and without the codec.
  Message query = Message::query(6, name("edge.cdnzone.net"), RRType::kA);
  query.ecs = EdnsClientSubnet{net::Ipv4Addr{100, 64, 3, 77}, 16, 0};
  EXPECT_DEATH(exchange(*cdn_, query, net::Ipv4Addr{9, 9, 9, 9},
                        net::SimTime::zero(), rng_),
               "changes on the wire");
}
#endif

TEST_F(DnsWorldTest, RootDelegatesToTld) {
  auto& root = hierarchy_->root();
  const auto response =
      root.handle_query(Message::query(1, name("static.example.com"),
                                       RRType::kA),
                        net::Ipv4Addr{9, 9, 9, 9}, net::SimTime::zero(), rng_)
          .message;
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->answers.empty());
  ASSERT_FALSE(response->authorities.empty());
  EXPECT_EQ(response->authorities[0].type(), RRType::kNS);
  ASSERT_FALSE(response->additionals.empty());  // glue
  EXPECT_FALSE(response->header.aa);
}

// --- recursive resolution ------------------------------------------------

TEST_F(DnsWorldTest, ColdResolutionWalksHierarchy) {
  const auto result = resolver_->resolve(name("static.example.com"), RRType::kA,
                                         net::SimTime::zero(), rng_);
  EXPECT_EQ(result.rcode, Rcode::kNoError);
  ASSERT_FALSE(result.addresses().empty());
  EXPECT_EQ(result.addresses()[0], net::Ipv4Addr(50, 1, 1, 1));
  EXPECT_FALSE(result.from_cache);
  // root -> tld(com) -> example.com = 3 upstream queries.
  EXPECT_EQ(result.upstream_queries, 3);
  EXPECT_GT(result.upstream_ms, 0.0);
}

TEST_F(DnsWorldTest, WarmResolutionServedFromCache) {
  resolver_->resolve(name("static.example.com"), RRType::kA,
                     net::SimTime::zero(), rng_);
  const auto warm = resolver_->resolve(name("static.example.com"), RRType::kA,
                                       net::SimTime::from_seconds(10), rng_);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.upstream_queries, 0);
  EXPECT_DOUBLE_EQ(warm.upstream_ms, 0.0);
}

TEST_F(DnsWorldTest, LanesCachingIdenticalContentAreChargedOnce) {
  // Two devices' lanes resolve the same name: each lane keeps its own
  // cache slots, but the content is pooled once per resolver, and the
  // lane-memory gauge charges it once.
  resolver_->set_state_lanes(3);
  struct LaneBytes {
    size_t slots = 0;
    size_t pool = 0;
    const std::vector<ResourceRecord>* records = nullptr;
  };
  const auto resolve_in = [&](int lane) {
    net::StateLaneGuard guard(lane);
    resolver_->resolve(name("www.example.com"), RRType::kA,
                       net::SimTime::zero(), rng_);
    const Cache& cache = resolver_->cache();
    LaneBytes bytes{cache.approx_bytes(), cache.pool().approx_bytes(), nullptr};
    const auto hit = resolver_->cache().lookup(
        name("edge.cdnzone.net"), RRType::kA, net::SimTime::zero());
    if (hit) bytes.records = &hit->records();
    return bytes;
  };
  const LaneBytes first = resolve_in(1);
  const size_t charged_one = resolver_->approx_lane_bytes().cache_bytes;
  const LaneBytes second = resolve_in(2);
  const size_t charged_two = resolver_->approx_lane_bytes().cache_bytes;

  ASSERT_NE(first.records, nullptr);
  EXPECT_EQ(first.records, second.records);  // one pooled copy
  EXPECT_EQ(second.pool, first.pool);        // the second lane added none
  EXPECT_EQ(second.slots, first.slots);
  EXPECT_EQ(charged_one, first.pool + first.slots);
  EXPECT_EQ(charged_two, first.pool + first.slots + second.slots);
  EXPECT_GT(first.pool, first.slots);
}

TEST_F(DnsWorldTest, CachedTldCutShortensSecondResolution) {
  resolver_->resolve(name("static.example.com"), RRType::kA,
                     net::SimTime::zero(), rng_);
  // Different name, same zone: NS for example.com is cached, so the
  // resolver goes straight to the zone ADNS.
  origin_->add_record(ResourceRecord::a(name("other.example.com"),
                                        net::Ipv4Addr{50, 1, 1, 2}, 600));
  const auto result = resolver_->resolve(name("other.example.com"), RRType::kA,
                                         net::SimTime::from_seconds(1), rng_);
  EXPECT_EQ(result.upstream_queries, 1);
}

TEST_F(DnsWorldTest, CrossZoneCnameChase) {
  const auto result = resolver_->resolve(name("www.example.com"), RRType::kA,
                                         net::SimTime::zero(), rng_);
  EXPECT_EQ(result.rcode, Rcode::kNoError);
  ASSERT_EQ(result.answers.size(), 2u);
  EXPECT_EQ(result.answers[0].type(), RRType::kCNAME);
  EXPECT_EQ(result.answers[1].type(), RRType::kA);
  EXPECT_EQ(result.addresses()[0], net::Ipv4Addr(60, 1, 2, 3));
}

TEST_F(DnsWorldTest, NxdomainIsNegativeCached) {
  const auto first = resolver_->resolve(name("missing.example.com"), RRType::kA,
                                        net::SimTime::zero(), rng_);
  EXPECT_EQ(first.rcode, Rcode::kNxDomain);
  const auto second = resolver_->resolve(name("missing.example.com"),
                                         RRType::kA,
                                         net::SimTime::from_seconds(5), rng_);
  EXPECT_EQ(second.rcode, Rcode::kNxDomain);
  EXPECT_EQ(second.upstream_queries, 0);
}

TEST_F(DnsWorldTest, ExpiredEntryRefetched) {
  resolver_->resolve(name("static.example.com"), RRType::kA,
                     net::SimTime::zero(), rng_);
  const auto later = resolver_->resolve(name("static.example.com"), RRType::kA,
                                        net::SimTime::from_seconds(601), rng_);
  EXPECT_FALSE(later.from_cache);
  EXPECT_GT(later.upstream_queries, 0);
}

TEST_F(DnsWorldTest, TtlZeroAnswersNeverCached) {
  // The CDN dynamic answer above has TTL 0 after the handler's explicit 0?
  // No — the handler returns TTL 0 records, which the server rewrites to
  // its dynamic TTL (30). Use the research-ADNS pattern instead: TTL 0 on
  // a zone whose dynamic TTL is also 0.
  cdn_->set_dynamic_handler(
      [](const Question& question, net::Ipv4Addr resolver_ip,
         const std::optional<EdnsClientSubnet>&, net::SimTime,
         net::Rng&) -> std::optional<std::vector<ResourceRecord>> {
        return std::vector<ResourceRecord>{
            ResourceRecord::a(question.name, resolver_ip, 0)};
      },
      /*dynamic_ttl_s=*/0);
  const auto first = resolver_->resolve(name("unique1.cdnzone.net"), RRType::kA,
                                        net::SimTime::zero(), rng_);
  EXPECT_FALSE(first.addresses().empty());
  const auto again = resolver_->resolve(name("unique1.cdnzone.net"), RRType::kA,
                                        net::SimTime::from_millis(1), rng_);
  EXPECT_FALSE(again.from_cache);  // TTL 0 was not cached
}

// --- background-load model ------------------------------------------------

// A miss on a name with TTL T warms with probability T/(T+I); an
// interarrival this small makes warming all but certain.
constexpr double kAlwaysWarmInterarrivalS = 1e-6;
// Lookups this far apart always find the previous entry expired (every
// name these tests look up has TTL <= 600 s), so every lookup is a miss.
constexpr double kLookupSpacingS = 601.0;

net::SimTime lookup_time(int i) {
  return net::SimTime::from_seconds(kLookupSpacingS * i);
}

TEST_F(DnsWorldTest, WarmHitProbabilityServesMissAsHit) {
  resolver_->set_background_load(kAlwaysWarmInterarrivalS);
  const auto result = resolver_->resolve(name("static.example.com"), RRType::kA,
                                         net::SimTime::zero(), rng_);
  EXPECT_TRUE(result.from_cache);
  EXPECT_DOUBLE_EQ(result.upstream_ms, 0.0);
  EXPECT_FALSE(result.addresses().empty());
}

TEST_F(DnsWorldTest, WarmEligibilityExcludesNames) {
  const DnsName research = name("curtain-study.net");
  resolver_->set_background_load(
      kAlwaysWarmInterarrivalS,
      [research](const DnsName& n) { return !n.is_within(research); });
  const auto excluded = resolver_->resolve(name("r1.adns.curtain-study.net"),
                                           RRType::kA, net::SimTime::zero(),
                                           rng_);
  EXPECT_FALSE(excluded.from_cache);  // warming skipped, real iteration ran
}

TEST_F(DnsWorldTest, BackgroundLoadWarmShareFollowsTtl) {
  // Every lookup is a miss the model decides: warm (served as a hit at no
  // upstream cost) with probability T/(T+I), else a full recursion.
  // Seeded, so the counts are fixed; the bounds say what any seed gives.
  constexpr double kInterarrivalS = 200.0;
  constexpr int kMisses = 2000;
  resolver_->set_background_load(kInterarrivalS);
  const auto expect_warm_share = [&](const char* qname, double ttl_s) {
    SCOPED_TRACE(qname);
    int warm = 0;
    for (int i = 0; i < kMisses; ++i) {
      const auto result =
          resolver_->resolve(name(qname), RRType::kA, lookup_time(i), rng_);
      ASSERT_FALSE(result.addresses().empty());
      EXPECT_EQ(result.from_cache, result.upstream_queries == 0);
      if (result.from_cache) ++warm;
    }
    // Within 4.5 binomial standard deviations of T/(T+I).
    const double p = ttl_s / (ttl_s + kInterarrivalS);
    const double sd = std::sqrt(kMisses * p * (1.0 - p));
    EXPECT_NEAR(warm, kMisses * p, 4.5 * sd);
  };
  origin_->add_record(ResourceRecord::a(name("mid.example.com"),
                                        net::Ipv4Addr{50, 1, 1, 2}, 120));
  expect_warm_share("mid.example.com", 120.0);  // 120/320: 37.5% warm
  expect_warm_share("edge.cdnzone.net", 30.0);  // CDN TTL: 30/230, ~13% warm
  // The model reads T as min(300, answer TTLs) — 300 s being the TTL it
  // assumes for empty answers — so a 600 s name warms like a 300 s one.
  expect_warm_share("static.example.com", 300.0);  // 300/500: 60% warm
}

TEST_F(DnsWorldTest, BackgroundLoadNeverWarmsIneligibleNames) {
  const DnsName cdn = name("cdnzone.net");
  resolver_->set_background_load(
      kAlwaysWarmInterarrivalS,
      [cdn](const DnsName& n) { return !n.is_within(cdn); });
  for (int i = 0; i < 50; ++i) {
    const auto excluded = resolver_->resolve(name("edge.cdnzone.net"),
                                             RRType::kA, lookup_time(i), rng_);
    EXPECT_FALSE(excluded.from_cache) << "lookup " << i;
    EXPECT_GT(excluded.upstream_queries, 0) << "lookup " << i;
    const auto eligible = resolver_->resolve(name("static.example.com"),
                                             RRType::kA, lookup_time(i), rng_);
    EXPECT_TRUE(eligible.from_cache) << "lookup " << i;
  }
}

TEST_F(DnsWorldTest, BackgroundLoadNeverWarmsEcsScopedLookups) {
  // An ECS-scoped answer is specific to the client's subnet, which the
  // background population does not share; the same name looked up
  // without a client subnet still warms.
  resolver_->enable_ecs();
  resolver_->set_background_load(kAlwaysWarmInterarrivalS);
  const net::Ipv4Addr client{100, 64, 3, 77};
  for (int i = 0; i < 50; ++i) {
    const auto scoped = resolver_->resolve(
        name("static.example.com"), RRType::kA, lookup_time(i), rng_, client);
    EXPECT_FALSE(scoped.from_cache) << "lookup " << i;
    EXPECT_GT(scoped.upstream_queries, 0) << "lookup " << i;
    const auto global = resolver_->resolve(name("static.example.com"),
                                           RRType::kA, lookup_time(i), rng_);
    EXPECT_TRUE(global.from_cache) << "lookup " << i;
  }
}

TEST_F(DnsWorldTest, ResolverHandleQueryWire) {
  const Message query =
      Message::query(321, name("static.example.com"), RRType::kA);
  const auto served = resolver_->handle_query(
      query, net::Ipv4Addr{7, 7, 7, 7}, net::SimTime::zero(), rng_);
  EXPECT_GT(served.server_side_ms, 0.0);
  const auto& response = served.message;
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->header.ra);
  EXPECT_EQ(response->header.id, 321);
  EXPECT_FALSE(a_addresses(response->answers).empty());
}

TEST_F(DnsWorldTest, UnknownTldServfails) {
  const auto result = resolver_->resolve(name("host.nosuchtld"), RRType::kA,
                                         net::SimTime::zero(), rng_);
  EXPECT_EQ(result.rcode, Rcode::kNxDomain);  // the root answers NXDOMAIN
}

// --- stub ----------------------------------------------------------------

TEST_F(DnsWorldTest, StubEndToEnd) {
  StubResolver stub(client_node_, net::Ipv4Addr{7, 7, 7, 7}, topo_,
                    registry_);
  const auto result =
      stub.query(net::Ipv4Addr{9, 9, 9, 9}, name("static.example.com"),
                 RRType::kA, net::SimTime::zero(), rng_, /*extra=*/25.0);
  EXPECT_TRUE(result.responded);
  EXPECT_EQ(result.rcode, Rcode::kNoError);
  EXPECT_FALSE(result.addresses().empty());
  // extra latency + client-resolver RTT (4 ms) + upstream work.
  EXPECT_GT(result.total_ms, 29.0);
}

TEST_F(DnsWorldTest, StubUnknownResolverFails) {
  StubResolver stub(client_node_, net::Ipv4Addr{7, 7, 7, 7}, topo_,
                    registry_);
  const auto result =
      stub.query(net::Ipv4Addr{203, 0, 113, 1}, name("static.example.com"),
                 RRType::kA, net::SimTime::zero(), rng_);
  EXPECT_FALSE(result.responded);
}

}  // namespace
}  // namespace curtain::dns
