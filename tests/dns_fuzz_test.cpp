// Deterministic mutation fuzzing of the DNS wire decoder.
//
// A seeded net::Rng mutates a corpus of encoded messages (CNAME chains,
// referrals with glue, NXDOMAIN with SOA, ECS-bearing queries and
// responses) with byte flips, truncations, forward/self/looping
// compression pointers and inflated section counts. Whatever `decode`
// accepts must be a fixed point of the codec: it re-encodes and decodes
// back to itself. Crashes and out-of-bounds reads are the sanitize leg's
// to catch (scripts/check.sh sanitize runs this test under ASan+UBSan).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "dns/message.h"
#include "net/rng.h"

namespace curtain::dns {
namespace {

DnsName name(const char* s) { return *DnsName::parse(s); }

Message cname_chain() {
  Message r = Message::query(0x1234, name("www.buzzfeed.com"), RRType::kA)
                  .make_response();
  r.header.ra = true;
  r.answers.push_back(ResourceRecord::cname(
      name("www.buzzfeed.com"), name("buzzfeed-www.fastedge.net"), 300));
  r.answers.push_back(ResourceRecord::cname(name("buzzfeed-www.fastedge.net"),
                                            name("e7.g.fastedge.net"), 60));
  r.answers.push_back(ResourceRecord::a(name("e7.g.fastedge.net"),
                                        net::Ipv4Addr{20, 1, 2, 3}, 30));
  r.answers.push_back(ResourceRecord::a(name("e7.g.fastedge.net"),
                                        net::Ipv4Addr{20, 1, 2, 4}, 30));
  return r;
}

Message referral() {
  Message r = Message::query(77, name("static.example.com"), RRType::kA)
                  .make_response();
  r.authorities.push_back(
      ResourceRecord::ns(name("example.com"), name("ns1.example.com"), 172800));
  r.authorities.push_back(
      ResourceRecord::ns(name("example.com"), name("ns2.example.com"), 172800));
  r.additionals.push_back(ResourceRecord::a(name("ns1.example.com"),
                                            net::Ipv4Addr{50, 0, 0, 1}, 172800));
  r.additionals.push_back(ResourceRecord::a(name("ns2.example.com"),
                                            net::Ipv4Addr{50, 0, 0, 2}, 172800));
  return r;
}

Message nxdomain() {
  Message r = Message::query(9, name("missing.example.com"), RRType::kA)
                  .make_response();
  r.header.aa = true;
  r.header.rcode = Rcode::kNxDomain;
  SoaRecord soa;
  soa.mname = name("ns1.example.com");
  soa.rname = name("hostmaster.example.com");
  soa.serial = 2014030100;
  soa.refresh = 7200;
  soa.retry = 900;
  soa.expire = 1209600;
  soa.minimum = 300;
  r.authorities.push_back(ResourceRecord::soa(name("example.com"), soa, 3600));
  return r;
}

Message ecs_query(uint8_t prefix_len, net::Ipv4Addr masked) {
  Message q = Message::query(31, name("m.yelp.com"), RRType::kA);
  q.ecs = EdnsClientSubnet{masked, prefix_len, 0};
  return q;
}

Message ecs_response() {
  Message r = ecs_query(24, net::Ipv4Addr{100, 64, 3, 0}).make_response();
  r.ecs = EdnsClientSubnet{net::Ipv4Addr{100, 64, 3, 0}, 24, 24};
  r.answers.push_back(ResourceRecord::a(name("m.yelp.com"),
                                        net::Ipv4Addr{60, 1, 2, 3}, 20));
  r.additionals.push_back(ResourceRecord::txt(name("m.yelp.com"),
                                              {"v=1", ""}, 60));
  return r;
}

std::vector<std::vector<uint8_t>> corpus() {
  std::vector<std::vector<uint8_t>> out;
  for (const Message& m :
       {cname_chain(), referral(), nxdomain(),
        ecs_query(24, net::Ipv4Addr{100, 64, 3, 0}),
        ecs_query(20, net::Ipv4Addr{10, 20, 16, 0}), ecs_response()}) {
    out.push_back(encode(m));
  }
  return out;
}

enum class Mutation : uint8_t {
  kByteFlip,
  kTruncate,
  kForwardPointer,
  kSelfPointer,
  kPointerLoop,
  kInflateCount,
};
constexpr size_t kMutations = 6;
constexpr size_t kHeaderBytes = 12;

void put_pointer(std::vector<uint8_t>& wire, size_t at, size_t target) {
  wire[at] = static_cast<uint8_t>(0xc0 | ((target >> 8) & 0x3f));
  wire[at + 1] = static_cast<uint8_t>(target & 0xff);
}

void mutate(std::vector<uint8_t>& wire, Mutation kind, net::Rng& rng) {
  const size_t n = wire.size();
  // A random spot past the header with room for a two-byte pointer.
  const auto body_offset = [&] {
    return static_cast<size_t>(rng.uniform_u64(kHeaderBytes, n - 2));
  };
  switch (kind) {
    case Mutation::kByteFlip: {
      const auto flips = rng.uniform_u64(1, 4);
      for (uint64_t i = 0; i < flips; ++i) {
        wire[rng.uniform_u64(0, n - 1)] ^=
            static_cast<uint8_t>(rng.uniform_u64(1, 255));
      }
      break;
    }
    case Mutation::kTruncate:
      wire.resize(static_cast<size_t>(rng.uniform_u64(0, n - 1)));
      break;
    case Mutation::kForwardPointer: {
      const size_t at = body_offset();
      put_pointer(wire, at, rng.uniform_u64(at + 1, n + 16));
      break;
    }
    case Mutation::kSelfPointer: {
      const size_t at = body_offset();
      put_pointer(wire, at, at);
      break;
    }
    case Mutation::kPointerLoop: {
      // Two pointers aiming at each other: the earlier one jumps forward
      // to the later one, which jumps back again.
      const size_t a = body_offset();
      const size_t b = body_offset();
      if (a + 2 > b) {
        put_pointer(wire, a, a);
        break;
      }
      put_pointer(wire, a, b);
      put_pointer(wire, b, a);
      break;
    }
    case Mutation::kInflateCount: {
      const size_t count = 4 + 2 * static_cast<size_t>(rng.uniform_u64(0, 3));
      const uint16_t old_count =
          static_cast<uint16_t>(wire[count] << 8 | wire[count + 1]);
      const uint16_t inflated =
          rng.bernoulli(0.25) ? uint16_t{0xffff}
                              : static_cast<uint16_t>(
                                    old_count + rng.uniform_u64(1, 3));
      wire[count] = static_cast<uint8_t>(inflated >> 8);
      wire[count + 1] = static_cast<uint8_t>(inflated & 0xff);
      break;
    }
  }
}

TEST(DnsDecodeFuzz, AcceptedMessagesAreCodecFixedPoints) {
  constexpr int kCases = 100000;
  const auto seeds = corpus();
  net::Rng rng(20141105);
  std::array<int, kMutations> accepted{};
  std::array<int, kMutations> rejected{};
  for (int i = 0; i < kCases; ++i) {
    std::vector<uint8_t> wire =
        seeds[static_cast<size_t>(rng.uniform_u64(0, seeds.size() - 1))];
    const auto kind =
        static_cast<Mutation>(rng.uniform_u64(0, kMutations - 1));
    mutate(wire, kind, rng);
    // Stacked mutations reach states a single edit cannot.
    if (rng.bernoulli(0.25) && wire.size() > kHeaderBytes + 2) {
      mutate(wire, static_cast<Mutation>(rng.uniform_u64(0, kMutations - 1)),
             rng);
    }
    const auto decoded = decode(wire);
    const auto k = static_cast<size_t>(kind);
    if (!decoded) {
      ++rejected[k];
      continue;
    }
    ++accepted[k];
    const auto again = decode(encode(*decoded));
    ASSERT_TRUE(again.has_value()) << "case " << i << " re-encode fails";
    ASSERT_EQ(*again, *decoded) << "case " << i << " is not a fixed point";
  }
  // The corpus and mutations must exercise both outcomes, or the run
  // proves nothing about the accept path or the reject path.
  for (size_t k = 0; k < kMutations; ++k) {
    EXPECT_GT(rejected[k], 0) << "mutation " << k;
  }
  EXPECT_GT(accepted[static_cast<size_t>(Mutation::kByteFlip)], 0);
  EXPECT_GT(accepted[static_cast<size_t>(Mutation::kForwardPointer)], 0);
}

TEST(DnsDecodeFuzz, PointerCyclesAreRejected) {
  const auto query =
      encode(Message::query(5, name("a.example.com"), RRType::kA));
  auto wire = query;
  put_pointer(wire, kHeaderBytes, kHeaderBytes);
  EXPECT_FALSE(decode(wire).has_value()) << "self pointer";
  wire = query;
  put_pointer(wire, kHeaderBytes, kHeaderBytes + 4);
  EXPECT_FALSE(decode(wire).has_value()) << "forward pointer";
  put_pointer(wire, kHeaderBytes + 4, kHeaderBytes);
  EXPECT_FALSE(decode(wire).has_value()) << "pointer loop";
}

TEST(DnsDecodeFuzz, DotInsideLabelKeepsItsOwnCompressionKey) {
  // "a.b" as one label and a.b as two labels are different names; the
  // compressor must not point one at the other.
  Message m = Message::query(1, *DnsName::from_labels({"a.b", "com"}),
                             RRType::kA)
                  .make_response();
  m.answers.push_back(ResourceRecord::a(name("a.b.com"),
                                        net::Ipv4Addr{1, 2, 3, 4}, 60));
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

TEST(DnsDecodeFuzz, EcsHostBitsPastThePrefixAreRejected) {
  // RFC 7871 §6: address bits beyond SOURCE PREFIX-LENGTH must be zero.
  // A /20 carries three address octets; set a bit of the fourth nibble.
  auto wire = encode(ecs_query(20, net::Ipv4Addr{10, 20, 16, 0}));
  ASSERT_TRUE(decode(wire).has_value());
  wire.back() |= 0x01;
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(DnsDecodeFuzz, MalformedEcsOptionRejectsTheMessage) {
  // A /24 option carries three address octets; claiming /16 leaves the
  // option inconsistent, which must fail the message rather than decode
  // it as if it carried no client subnet.
  auto wire = encode(ecs_query(24, net::Ipv4Addr{100, 64, 3, 0}));
  uint8_t& source_prefix = wire[wire.size() - 5];
  ASSERT_EQ(source_prefix, 24);
  source_prefix = 16;
  EXPECT_FALSE(decode(wire).has_value());
}

}  // namespace
}  // namespace curtain::dns
