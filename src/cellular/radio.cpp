#include "cellular/radio.h"

#include <vector>

namespace curtain::cellular {
namespace {

using net::LatencyModel;
using net::SimTime;

// Medians chosen so DNS resolution (access RTT + core RTT to the resolver)
// lands in Fig. 3's bands: LTE ~30-50 ms, 3G ~+50 ms, 2G near 1 s.
const std::vector<RadioProfile>& profiles() {
  static const std::vector<RadioProfile> table = {
      {RadioTech::kLte, "LTE", RadioGeneration::k4G,
       LatencyModel::jittered(28.0, 0.22), LatencyModel::jittered(260.0, 0.2),
       SimTime::from_seconds(10)},
      {RadioTech::kHspap, "HSPAP", RadioGeneration::k3G,
       LatencyModel::jittered(55.0, 0.30), LatencyModel::jittered(900.0, 0.3),
       SimTime::from_seconds(6)},
      {RadioTech::kHsupa, "HSUPA", RadioGeneration::k3G,
       LatencyModel::jittered(70.0, 0.32), LatencyModel::jittered(1200.0, 0.3),
       SimTime::from_seconds(6)},
      {RadioTech::kHsdpa, "HSDPA", RadioGeneration::k3G,
       LatencyModel::jittered(75.0, 0.32), LatencyModel::jittered(1200.0, 0.3),
       SimTime::from_seconds(6)},
      {RadioTech::kHspa, "HSPA", RadioGeneration::k3G,
       LatencyModel::jittered(80.0, 0.33), LatencyModel::jittered(1300.0, 0.3),
       SimTime::from_seconds(6)},
      {RadioTech::kUmts, "UTMS", RadioGeneration::k3G,  // paper's spelling
       LatencyModel::jittered(110.0, 0.35), LatencyModel::jittered(1800.0, 0.3),
       SimTime::from_seconds(6)},
      {RadioTech::kEhrpd, "EHRPD", RadioGeneration::k3G,
       LatencyModel::jittered(78.0, 0.30), LatencyModel::jittered(1500.0, 0.3),
       SimTime::from_seconds(8)},
      {RadioTech::kEvdoA, "EVDO_A", RadioGeneration::k3G,
       LatencyModel::jittered(82.0, 0.30), LatencyModel::jittered(1500.0, 0.3),
       SimTime::from_seconds(8)},
      {RadioTech::kEdge, "EDGE", RadioGeneration::k2G,
       LatencyModel::jittered(420.0, 0.35), LatencyModel::jittered(2500.0, 0.3),
       SimTime::from_seconds(5)},
      {RadioTech::kGprs, "GPRS", RadioGeneration::k2G,
       LatencyModel::jittered(600.0, 0.35), LatencyModel::jittered(3000.0, 0.3),
       SimTime::from_seconds(5)},
      {RadioTech::kOneXRtt, "1xRTT", RadioGeneration::k2G,
       LatencyModel::jittered(900.0, 0.30), LatencyModel::jittered(3500.0, 0.3),
       SimTime::from_seconds(5)},
  };
  return table;
}

}  // namespace

const RadioProfile& radio_profile(RadioTech tech) {
  for (const auto& profile : profiles()) {
    if (profile.tech == tech) return profile;
  }
  return profiles().front();  // unreachable for valid enum values
}

const char* radio_tech_name(RadioTech tech) {
  return radio_profile(tech).name.c_str();
}

RadioGeneration radio_generation(RadioTech tech) {
  return radio_profile(tech).generation;
}

bool RrcState::is_idle(RadioTech tech, net::SimTime now) const {
  return now - last_activity_ > radio_profile(tech).inactivity_timeout;
}

double RrcState::access_rtt_ms(RadioTech tech, net::SimTime now, net::Rng& rng) {
  const RadioProfile& profile = radio_profile(tech);
  double rtt = profile.access_rtt.sample(rng);
  if (is_idle(tech, now)) rtt += profile.promotion.sample(rng);
  last_activity_ = now;
  return rtt;
}

}  // namespace curtain::cellular
