// A bytes-level DNS server for tests.
//
// Simulated servers exchange dns::Message values, so a server that answers
// with garbage or with a malformed packet cannot be written against the
// DnsServer interface directly. WireAdapter puts a bytes-in, bytes-out
// responder behind that interface: it encodes the incoming query, hands
// the bytes to the responder and decodes the reply, which reads as "no
// response" when it does not decode. `fronting` goes the other way and
// gives a Message-level server a bytes-level front, so tests can feed a
// real server packets that never decode.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "dns/message.h"
#include "dns/server.h"

namespace curtain::dns {

using WireResponder = std::function<std::vector<uint8_t>(
    std::span<const uint8_t> query_wire, net::Ipv4Addr source_ip,
    net::SimTime now, net::Rng& rng)>;

class WireAdapter : public DnsServer {
 public:
  WireAdapter(net::NodeId node, net::Ipv4Addr ip, WireResponder responder)
      : node_(node), ip_(ip), responder_(std::move(responder)) {}

  /// A bytes-level front for `server`: bytes that do not decode get a
  /// FORMERR with id 0, as a real server's packet parser would answer.
  static WireAdapter fronting(DnsServer& server) {
    return WireAdapter(
        server.node(), server.ip(),
        [&server](std::span<const uint8_t> query_wire, net::Ipv4Addr source_ip,
                  net::SimTime now, net::Rng& rng) {
          const auto query = decode(query_wire);
          if (!query) {
            Message formerr;
            formerr.header.qr = true;
            formerr.header.rcode = Rcode::kFormErr;
            return encode(formerr);
          }
          const auto served = server.handle_query(*query, source_ip, now, rng);
          return served.message ? encode(*served.message)
                                : std::vector<uint8_t>{};
        });
  }

  /// Raw bytes straight to the responder.
  std::vector<uint8_t> handle_wire(std::span<const uint8_t> query_wire,
                                   net::Ipv4Addr source_ip, net::SimTime now,
                                   net::Rng& rng) {
    return responder_(query_wire, source_ip, now, rng);
  }

  ServedResponse handle_query(const Message& query, net::Ipv4Addr source_ip,
                              net::SimTime now, net::Rng& rng) override {
    return ServedResponse{
        decode(handle_wire(encode(query), source_ip, now, rng)), 0.0};
  }
  net::NodeId node() const override { return node_; }
  net::Ipv4Addr ip() const override { return ip_; }

 private:
  net::NodeId node_;
  net::Ipv4Addr ip_;
  WireResponder responder_;
};

}  // namespace curtain::dns
