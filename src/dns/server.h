// The DNS server interface and the registry binding servers to topology
// nodes.
//
// Servers exchange `dns::Message` values, not packet bytes: no result
// reads the bytes, so the wire codec (dns/message.h) stays off the
// simulation path. A CURTAIN_DNS_WIRE_CHECK build round-trips every
// message through the codec in `exchange` and requires it unchanged.
// `server_side_ms` carries the latency the server itself incurred (a
// recursive resolver's upstream round trips); the caller adds its own
// transport RTT to the server.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "dns/message.h"
#include "net/ipv4.h"
#include "net/rng.h"
#include "net/time.h"
#include "net/topology.h"
#include "util/contract.h"

namespace curtain::dns {

struct ServedResponse {
  /// The response, or nullopt when nothing decodable came back.
  std::optional<Message> message;
  double server_side_ms = 0.0;
};

class DnsServer {
 public:
  virtual ~DnsServer() = default;

  /// Handles one query arriving from `source_ip` at time `now`. Servers
  /// answer every query, a question-less one with FORMERR, so clients
  /// observe a response or a timeout; only a hostile or broken responder
  /// returns no message.
  virtual ServedResponse handle_query(const Message& query,
                                      net::Ipv4Addr source_ip, net::SimTime now,
                                      net::Rng& rng) = 0;

  /// Topology node this server is bound to.
  virtual net::NodeId node() const = 0;
  /// Address the server answers on.
  virtual net::Ipv4Addr ip() const = 0;

  /// For anycast services: the instance node a packet from `source` is
  /// routed to at time `now`. Unicast servers (the default) have a single
  /// node; anycast routing can drift over time (tunneling, BGP churn).
  virtual net::NodeId node_for(net::Ipv4Addr source, net::SimTime now) const {
    (void)source;
    (void)now;
    return node();
  }
};

/// Sends `query` from `source_ip` to `server`: the stub, a resolver's
/// upstream queries and a carrier's forward all go through here.
inline ServedResponse exchange(DnsServer& server, const Message& query,
                               net::Ipv4Addr source_ip, net::SimTime now,
                               net::Rng& rng) {
  ServedResponse served = server.handle_query(query, source_ip, now, rng);
#ifdef CURTAIN_DNS_WIRE_CHECK
  // Passing messages instead of bytes is sound only while the codec would
  // carry both unchanged.
  for (const Message* m : {&query, served.message ? &*served.message : &query}) {
    const auto decoded = decode(encode(*m));
    CURTAIN_CHECK(decoded && *decoded == *m)
        << "DNS message id " << m->header.id << " changes on the wire";
  }
#endif
  return served;
}

/// Maps server IPs to server instances so resolvers can "send" packets.
/// Non-owning: the world owns its servers and outlives the registry users.
class ServerRegistry {
 public:
  void add(DnsServer* server) { by_ip_[server->ip().value()] = server; }

  DnsServer* find(net::Ipv4Addr ip) const {
    const auto it = by_ip_.find(ip.value());
    return it == by_ip_.end() ? nullptr : it->second;
  }

  size_t size() const { return by_ip_.size(); }

 private:
  std::unordered_map<uint32_t, DnsServer*> by_ip_;
};

}  // namespace curtain::dns
