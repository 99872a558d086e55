// Deterministic random number generation with derivable streams.
//
// Every stochastic choice in the simulator draws from an Rng stream derived
// from (study seed, entity, purpose). Derivation is pure hashing, so adding
// a new consumer never perturbs existing streams and every figure is
// bit-reproducible for a given CURTAIN_SEED.
//
// The core generator is xoshiro256**, seeded via splitmix64 as its authors
// recommend; both are tiny, fast and statistically strong for simulation.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/contract.h"

namespace curtain::net {

/// splitmix64 step: the standard 64-bit mixer used for seeding and for
/// combining ids into stream keys.
constexpr uint64_t splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless combine of a key and a value into a new key.
constexpr uint64_t mix_key(uint64_t key, uint64_t value) {
  uint64_t state = key ^ (value * 0x2545f4914f6cdd1dULL);
  return splitmix64(state);
}

/// FNV-1a for deriving streams from string tags.
constexpr uint64_t hash_tag(std::string_view tag) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : tag) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// xoshiro256** generator with distribution helpers.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Child stream keyed by a numeric id; independent of the parent's
  /// future output (derivation uses only the construction seed).
  Rng derive(uint64_t id) const;
  /// Child stream keyed by a string purpose tag.
  Rng derive(std::string_view tag) const;
  Rng derive(std::string_view tag, uint64_t id) const;

  uint64_t next_u64();
  /// Uniform in [0,1).
  double next_double();
  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  uint64_t uniform_u64(uint64_t lo, uint64_t hi);
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Standard normal via Box-Muller (one value cached).
  double normal();
  double normal(double mean, double stddev);
  /// Lognormal with the given *median* and shape sigma: median * e^(sigma·Z).
  double lognormal_median(double median, double sigma);
  /// Exponential with the given mean.
  double exponential(double mean);
  bool bernoulli(double p);
  /// Index into `weights` proportional to weight; requires a positive sum.
  size_t weighted_index(const std::vector<double>& weights);

  template <typename T>
  const T& pick(const std::vector<T>& v) {
    CURTAIN_DCHECK(!v.empty()) << "pick from an empty vector";
    return v[static_cast<size_t>(uniform_u64(0, v.size() - 1))];
  }

 private:
  uint64_t seed_;  // construction seed, retained for derive()
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace curtain::net
