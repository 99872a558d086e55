// Reverse DNS (in-addr.arpa, RFC 1035 §3.5).
//
// Measurement studies classify traceroute hops by resolving their PTR
// records (hop 10.1.2.3 → "pgw-7.att.net" tells you whose router that
// is). The world wires an in-addr.arpa zone whose PTR answers are derived
// from the topology, so a PTR query for any addressable node answers the
// way it would in practice. No campaign path sends one: ProbeEngine names
// traceroute hops by their topology node names directly (measure/probes.h).
// The zone stays because the world build consumes it — its server and the
// "arpa" TLD are topology nodes, and removing them renumbers everything
// built after and changes campaign results.
#pragma once

#include <optional>

#include "dns/authoritative.h"
#include "dns/name.h"
#include "net/topology.h"

namespace curtain::dns {

/// "d.c.b.a.in-addr.arpa" for the address a.b.c.d.
DnsName reverse_name(net::Ipv4Addr address);

/// Inverse of reverse_name; nullopt unless `name` is a well-formed
/// four-octet in-addr.arpa name.
std::optional<net::Ipv4Addr> parse_reverse_name(const DnsName& name);

/// A hostname label derived from a topology node's display name:
/// lowercased, non-alphanumerics collapsed to '-' ("AT&T-pgw-3" →
/// "at-t-pgw-3"). Safe to embed in a DNS name.
std::string hostname_label(const std::string& node_name);

/// The PTR target published for a node: <hostname_label>.<suffix>.
DnsName ptr_target(const net::Node& node, const DnsName& suffix);

/// Installs the in-addr.arpa behaviour on `server`: PTR queries are
/// answered from the topology's IP index, with targets under `suffix`.
/// Addresses with no owning node get NXDOMAIN.
void install_reverse_zone(AuthoritativeServer& server,
                          const net::Topology* topology, DnsName suffix);

}  // namespace curtain::dns
