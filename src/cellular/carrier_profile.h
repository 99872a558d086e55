// Per-carrier configuration.
//
// Each profile encodes what the paper *measured* about a carrier — its DNS
// architecture (Table 3 and §4.1), probe reachability (Table 4, Figs. 4
// and 11), egress-point count (§5.2), radio mix (Fig. 3) and the
// client↔resolver churn behaviour (§4.5, Figs. 8-9) — as generative
// parameters. Numeric cells lost by the OCR pass are calibrated from the
// surviving prose; see DESIGN.md §4.
#pragma once

#include <string>
#include <vector>

#include "cellular/radio.h"
#include "net/ipv4.h"
#include "net/time.h"

namespace curtain::cellular {

enum class DnsArchKind {
  kAnycast,  ///< few client VIPs, many externals behind them (AT&T, T-Mobile)
  kPool,     ///< client-facing pool load-balancing over externals (Sprint, SKT, LG U+)
  kTiered,   ///< fixed 1:1 client/external pairing in separate ASes (Verizon)
};

struct DnsArchitecture {
  DnsArchKind kind = DnsArchKind::kPool;
  int client_resolvers = 2;    ///< addresses configurable on devices
  int external_resolvers = 8;  ///< distinct external-facing addresses
  /// Number of /24 blocks the external addresses occupy.
  int external_slash24s = 4;
  /// Client and external resolvers share each /24 (SK carriers).
  bool paired_same_slash24 = false;
  /// Probability a query uses its epoch's "home" external resolver.
  double pairing_consistency = 0.8;
  /// Mean interval between re-draws of a device's home external resolver.
  net::SimTime repair_epoch_mean = net::SimTime::from_days(3);
  /// Central sites the externals are pulled back to (SK Telecom uses two
  /// sites whose small-country distances read as collocated).
  int external_sites = 4;
};

struct ReachabilityPolicy {
  /// External-facing resolvers answer subscriber pings (false for
  /// Verizon and LG U+ — Figs. 4/11 could not measure them).
  bool external_answers_internal = true;
  /// External-facing resolvers answer pings from the open Internet
  /// (Table 4: true for Verizon and AT&T, a small fraction of T-Mobile).
  double external_answers_external_fraction = 0.0;
  /// Externals live outside the carrier's firewalled zone (separate
  /// AS/DMZ) — necessary for any external reachability at all.
  bool externals_in_dmz = false;
};

struct CarrierProfile {
  std::string name;
  std::string country;  ///< "US" or "KR"
  uint32_t owner_tag = 0;  ///< assigned at world build
  int study_clients = 0;   ///< Table 1 fleet size

  /// Egress/ingress points (§5.2: 110 / 45 / 62 / 49 for the US four).
  int egress_points = 8;
  /// Metro regions the carrier groups its infrastructure into.
  int regions = 8;

  /// (technology, weight) mix across experiments (Fig. 3's per-carrier
  /// technology sets; LTE dominates in every studied carrier).
  std::vector<std::pair<RadioTech, double>> radio_mix;

  DnsArchitecture dns;
  ReachabilityPolicy reach;

  /// Mean interval between public-IP reassignments for an attached device
  /// (Balakrishnan et al.: cellular IPs are ephemeral).
  net::SimTime ip_reassign_mean = net::SimTime::from_hours(6);
  /// Probability that an IP reassignment also moves the device to a
  /// different gateway (drives egress and resolver churn for stationary
  /// clients, Fig. 9).
  double gateway_change_on_reassign = 0.5;

  /// Documentation: client/external-facing resolver ASes (Verizon's tiers
  /// live in AS6167 / AS22394 per §4.1).
  int client_as = 0;
  int external_as = 0;
};

/// The six carriers of the study, in the paper's habitual order:
/// AT&T, Sprint, T-Mobile, Verizon, SK Telecom, LG U+.
const std::vector<CarrierProfile>& study_carriers();

/// The 3G-era baseline the paper positions itself against (Xu et al.,
/// SIGMETRICS'11): the same four US carriers circa 2011 — 4-6 egress
/// points each, no LTE (UMTS/HSPA/EV-DO mixes with a fat 2G tail), and
/// coarser DNS deployments. In that world radio latency dominates and
/// "choosing content servers based on local DNS servers is sufficiently
/// accurate" — the claim bench/baseline_3g_era re-examines.
const std::vector<CarrierProfile>& xu_era_carriers();

}  // namespace curtain::cellular
