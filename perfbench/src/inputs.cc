#include "inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

uint64_t Clamp(double v) {
  if (v < 0.0) return 0;
  if (v >= static_cast<double>(kMpcatUniverse)) return kMpcatUniverse - 1;
  return static_cast<uint64_t>(v);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t state = seed;
  for (uint64_t& word : s_) word = SplitMix(&state);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::Below(uint64_t bound) {
  // Lemire's multiply-shift; the bias is below 2^-40 for the bounds used.
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double Rng::Gaussian() {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double m = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * m;
  have_spare_ = true;
  return u * m;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t state = seed * 0x100000001B3ULL + tag;
  SplitMix(&state);
  return SplitMix(&state);
}

std::vector<uint64_t> MpcatStream(uint64_t n, uint64_t seed) {
  Rng rng(seed);
  const double u = static_cast<double>(kMpcatUniverse);
  std::vector<uint64_t> out(n);
  for (uint64_t& value : out) {
    const double r = rng.NextDouble();
    if (r < 0.40) {
      value = Clamp(u * (0.28 + 0.09 * rng.Gaussian()));
    } else if (r < 0.78) {
      value = Clamp(u * (0.72 + 0.10 * rng.Gaussian()));
    } else {
      value = rng.Below(kMpcatUniverse);
    }
  }
  // Sorted runs of log-normal length (median exp(ln 1000) = 1000).
  uint64_t at = 0;
  while (at < n) {
    const double len = std::exp(std::log(1000.0) + rng.Gaussian());
    const uint64_t take = std::min<uint64_t>(
        n - at, std::max<uint64_t>(1, static_cast<uint64_t>(len)));
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(at),
              out.begin() + static_cast<std::ptrdiff_t>(at + take));
    at += take;
  }
  return out;
}

}  // namespace perfbench
