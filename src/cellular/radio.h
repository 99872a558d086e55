// Radio access technologies and their latency behaviour.
//
// Figure 3 of the paper shows DNS resolution time forming distinct bands
// per radio technology: LTE fastest, 3G (EVDO-A/EHRPD/HSPA*) roughly 50 ms
// slower at the median, and 2G (1xRTT/GPRS/EDGE) near a full second. We
// model each technology as a round-trip access-latency distribution plus
// an RRC state machine whose promotion delay is paid after idle periods
// (Huang et al., MobiSys'12), which the paper's experiment script avoids
// with a bootstrap ping.
#pragma once

#include <string>

#include "net/latency.h"
#include "net/rng.h"
#include "net/time.h"

namespace curtain::cellular {

enum class RadioTech {
  kLte,
  kHspap,  ///< HSPA+
  kHsupa,
  kHsdpa,
  kHspa,
  kUmts,
  kEhrpd,  ///< eHRPD (CDMA carriers' LTE fallback)
  kEvdoA,  ///< EV-DO Rev. A
  kEdge,
  kGprs,
  kOneXRtt,  ///< CDMA2000 1xRTT
};

enum class RadioGeneration { k2G, k3G, k4G };

struct RadioProfile {
  RadioTech tech;
  std::string name;
  RadioGeneration generation;
  /// Round-trip radio access latency while the radio is in its high-power
  /// (connected/DCH) state.
  net::LatencyModel access_rtt;
  /// Extra delay when the radio must be promoted from idle.
  net::LatencyModel promotion;
  /// Inactivity period after which the radio demotes to idle.
  net::SimTime inactivity_timeout;
};

/// Static profile for a technology (calibrated to Fig. 3's bands).
const RadioProfile& radio_profile(RadioTech tech);

const char* radio_tech_name(RadioTech tech);
RadioGeneration radio_generation(RadioTech tech);

/// Per-device radio resource control state. Tracks the last traffic time;
/// activity after the inactivity timeout pays the promotion delay.
class RrcState {
 public:
  /// Registers traffic at `now` on technology `tech` and returns the
  /// access RTT to charge, including promotion if the radio was idle.
  double access_rtt_ms(RadioTech tech, net::SimTime now, net::Rng& rng);

  /// True if the radio would need promotion for traffic at `now`.
  bool is_idle(RadioTech tech, net::SimTime now) const;

 private:
  net::SimTime last_activity_{-1'000'000'000};  // long idle at birth
};

}  // namespace curtain::cellular
