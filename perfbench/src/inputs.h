// Seeded input generation for the benchmark. Self-contained on purpose: a
// change to the library's own generators (src/stream/) must not be able to
// change what a workload feeds the program.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Universe of the MPCAT-like values: right ascension in 0.1 s units.
inline constexpr uint64_t kMpcatUniverse = 8'640'000;
/// ceil(log2(kMpcatUniverse)): what the fixed-universe summaries are given.
inline constexpr int kLogUniverse = 24;

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, 1).
  double NextDouble();
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound);
  /// Standard normal (Marsaglia polar method).
  double Gaussian();

 private:
  uint64_t s_[4];
  bool have_spare_ = false;
  double spare_ = 0.0;
};

/// Mixes a workload seed with a stream tag so that independent inputs of one
/// run never share a generator state.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// `n` MPCAT-like values: a bimodal mixture over [0, kMpcatUniverse) (40%
/// N(0.28u, 0.09u), 38% N(0.72u, 0.10u), 22% uniform), arriving as sorted
/// runs whose lengths are log-normal (median 1000, sigma 1), the way the
/// MPCAT-OBS archive arrives in ordered chunks.
std::vector<uint64_t> MpcatStream(uint64_t n, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
