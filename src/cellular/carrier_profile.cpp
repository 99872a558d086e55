#include "cellular/carrier_profile.h"

namespace curtain::cellular {
namespace {

using net::SimTime;

CarrierProfile att() {
  CarrierProfile p;
  p.name = "AT&T";
  p.country = "US";
  p.study_clients = 33;
  p.egress_points = 110;
  p.regions = 12;
  // GSM family: LTE dominant, HSPA fallbacks, EDGE/GPRS tail (Fig. 3).
  p.radio_mix = {{RadioTech::kLte, 0.80}, {RadioTech::kHspap, 0.09},
                 {RadioTech::kHspa, 0.04}, {RadioTech::kHsdpa, 0.03},
                 {RadioTech::kUmts, 0.02}, {RadioTech::kEdge, 0.015},
                 {RadioTech::kGprs, 0.005}};
  p.dns.kind = DnsArchKind::kAnycast;
  p.dns.client_resolvers = 2;  // anycast VIPs
  p.dns.external_resolvers = 36;
  p.dns.external_slash24s = 9;
  // §4.5: AT&T's mappings churn, and IP changes come with /24 changes.
  p.dns.pairing_consistency = 0.60;
  p.dns.repair_epoch_mean = SimTime::from_days(2);
  p.dns.external_sites = 6;
  p.reach.external_answers_internal = true;
  p.reach.external_answers_external_fraction = 0.85;  // Table 4 majority
  p.reach.externals_in_dmz = true;
  p.ip_reassign_mean = SimTime::from_hours(8);
  p.gateway_change_on_reassign = 0.35;
  return p;
}

CarrierProfile sprint() {
  CarrierProfile p;
  p.name = "Sprint";
  p.country = "US";
  p.study_clients = 9;
  p.egress_points = 45;
  p.regions = 8;
  // CDMA family: LTE plus eHRPD/EV-DO fallback and a 1xRTT tail.
  p.radio_mix = {{RadioTech::kLte, 0.70}, {RadioTech::kEhrpd, 0.16},
                 {RadioTech::kEvdoA, 0.11}, {RadioTech::kOneXRtt, 0.03}};
  p.dns.kind = DnsArchKind::kPool;
  p.dns.client_resolvers = 6;
  p.dns.external_resolvers = 24;
  p.dns.external_slash24s = 8;  // churn spans /24s (§4.5)
  // §4.1: Sprint's pools keep "a fairly consistent mapping between client
  // and external resolvers, over 60% of the time".
  p.dns.pairing_consistency = 0.75;
  p.dns.repair_epoch_mean = SimTime::from_days(30);
  p.dns.external_sites = 6;
  p.reach.external_answers_internal = true;
  p.reach.external_answers_external_fraction = 0.0;
  p.ip_reassign_mean = SimTime::from_hours(5);
  p.gateway_change_on_reassign = 0.5;
  return p;
}

CarrierProfile tmobile() {
  CarrierProfile p;
  p.name = "T-Mobile";
  p.country = "US";
  p.study_clients = 31;
  p.egress_points = 49;
  p.regions = 10;
  p.radio_mix = {{RadioTech::kLte, 0.74}, {RadioTech::kHspap, 0.14},
                 {RadioTech::kHspa, 0.05}, {RadioTech::kHsdpa, 0.03},
                 {RadioTech::kUmts, 0.02}, {RadioTech::kEdge, 0.015},
                 {RadioTech::kGprs, 0.005}};
  p.dns.kind = DnsArchKind::kAnycast;
  // One VIP observed mapping to ~40 external addresses (§4.1).
  p.dns.client_resolvers = 1;
  p.dns.external_resolvers = 40;
  p.dns.external_slash24s = 12;
  p.dns.pairing_consistency = 0.30;  // "high degree of load balancing"
  p.dns.repair_epoch_mean = SimTime::from_days(1);
  p.dns.external_sites = 6;
  p.reach.external_answers_internal = true;
  p.reach.external_answers_external_fraction = 0.12;  // "small fraction"
  p.reach.externals_in_dmz = true;
  p.ip_reassign_mean = SimTime::from_hours(4);
  p.gateway_change_on_reassign = 0.55;
  return p;
}

CarrierProfile verizon() {
  CarrierProfile p;
  p.name = "Verizon";
  p.country = "US";
  p.study_clients = 64;
  p.egress_points = 62;
  p.regions = 12;
  p.radio_mix = {{RadioTech::kLte, 0.78}, {RadioTech::kEhrpd, 0.12},
                 {RadioTech::kEvdoA, 0.08}, {RadioTech::kOneXRtt, 0.02}};
  p.dns.kind = DnsArchKind::kTiered;
  p.dns.client_resolvers = 12;
  p.dns.external_resolvers = 12;  // fixed 1:1 pairing
  p.dns.external_slash24s = 6;    // two externals share each AS22394 /24
  p.dns.pairing_consistency = 1.0;  // the only 100%-consistent carrier
  p.dns.repair_epoch_mean = SimTime::from_days(10000);  // effectively never
  p.dns.external_sites = 6;
  // External tier answers the open Internet but not subscribers (§4.1:
  // client probes to external resolvers went unanswered; Table 4: majority
  // answered the university).
  p.reach.external_answers_internal = false;
  p.reach.external_answers_external_fraction = 0.9;
  p.reach.externals_in_dmz = true;
  p.ip_reassign_mean = SimTime::from_hours(10);
  p.gateway_change_on_reassign = 0.25;
  p.client_as = 6167;
  p.external_as = 22394;
  return p;
}

CarrierProfile sk_telecom() {
  CarrierProfile p;
  p.name = "SK Telecom";
  p.country = "KR";
  p.study_clients = 17;
  p.egress_points = 10;
  p.regions = 5;
  p.radio_mix = {{RadioTech::kLte, 0.86}, {RadioTech::kHspap, 0.06},
                 {RadioTech::kHspa, 0.04}, {RadioTech::kHsupa, 0.02},
                 {RadioTech::kUmts, 0.02}};
  p.dns.kind = DnsArchKind::kPool;
  p.dns.client_resolvers = 2;     // §4.1: 2 client-configured addresses
  p.dns.external_resolvers = 24;  // and 24 publicly visible
  p.dns.external_slash24s = 2;    // pairs within the same /24
  p.dns.paired_same_slash24 = true;
  p.dns.pairing_consistency = 0.45;
  p.dns.repair_epoch_mean = SimTime::from_hours(18);
  // Two sites, one per /24 (Seoul/Busan). South Korea is small enough
  // that clients measure client- and external-facing resolvers as nearly
  // collocated (Fig. 4).
  p.dns.external_sites = 2;
  p.reach.external_answers_internal = true;
  p.reach.external_answers_external_fraction = 0.0;
  p.ip_reassign_mean = SimTime::from_hours(4);
  p.gateway_change_on_reassign = 0.4;
  return p;
}

CarrierProfile lg_uplus() {
  CarrierProfile p;
  p.name = "LG U+";
  p.country = "KR";
  p.study_clients = 4;
  p.egress_points = 8;
  p.regions = 4;
  p.radio_mix = {{RadioTech::kLte, 0.92}, {RadioTech::kHspap, 0.05},
                 {RadioTech::kUmts, 0.03}};
  p.dns.kind = DnsArchKind::kPool;
  p.dns.client_resolvers = 5;     // §4.1: 5 client, 89 external
  p.dns.external_resolvers = 89;
  p.dns.external_slash24s = 2;    // "all within only 2 /24 prefixes"
  p.dns.paired_same_slash24 = true;
  p.dns.pairing_consistency = 0.20;
  // A client saw 65 external IPs inside two weeks (§4.5).
  p.dns.repair_epoch_mean = SimTime::from_hours(5);
  p.dns.external_sites = 2;
  p.reach.external_answers_internal = false;  // Fig. 11: no responses
  p.reach.external_answers_external_fraction = 0.0;
  p.ip_reassign_mean = SimTime::from_hours(3);
  p.gateway_change_on_reassign = 0.5;
  return p;
}

}  // namespace

const std::vector<CarrierProfile>& study_carriers() {
  static const std::vector<CarrierProfile> carriers = {
      att(), sprint(), tmobile(), verizon(), sk_telecom(), lg_uplus()};
  return carriers;
}

const std::vector<CarrierProfile>& xu_era_carriers() {
  static const std::vector<CarrierProfile> carriers = [] {
    // Start from the modern profiles, then wind the clock back to 2011.
    std::vector<CarrierProfile> out;
    for (const auto& modern : study_carriers()) {
      if (modern.country != "US") continue;  // Xu et al. studied US 3G
      CarrierProfile p = modern;
      // "The number of egress points in each cellular network numbered
      // between 4 and 6" (paper §5.2 summarizing Xu et al.).
      p.egress_points = 4 + static_cast<int>(out.size() % 3);
      p.regions = p.egress_points;
      // No LTE: 3G technologies dominate, with a heavier 2G tail.
      if (p.name == "Sprint" || p.name == "Verizon") {
        p.radio_mix = {{RadioTech::kEvdoA, 0.62},
                       {RadioTech::kEhrpd, 0.18},
                       {RadioTech::kOneXRtt, 0.20}};
      } else {
        p.radio_mix = {{RadioTech::kHspa, 0.38},
                       {RadioTech::kHsdpa, 0.22},
                       {RadioTech::kUmts, 0.25},
                       {RadioTech::kEdge, 0.10},
                       {RadioTech::kGprs, 0.05}};
      }
      // Fewer, more centralized resolvers: DNS infrastructure followed the
      // handful of GGSN sites.
      p.dns.external_resolvers = std::min(p.dns.external_resolvers, 8);
      p.dns.external_slash24s = std::min(p.dns.external_slash24s, 4);
      p.dns.external_sites = std::min(p.dns.external_sites, p.regions);
      out.push_back(std::move(p));
    }
    return out;
  }();
  return carriers;
}

}  // namespace curtain::cellular
