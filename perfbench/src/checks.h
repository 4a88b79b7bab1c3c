// The benchmark's own correctness oracle and statistics. Exact ranks come
// from sorting the values the benchmark sent, never from the library
// (src/exact/), so a fault there cannot hide a fault elsewhere.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A sorted copy of every value sent, answering exact rank queries.
class SortedMultiset {
 public:
  SortedMultiset() = default;
  explicit SortedMultiset(std::vector<uint64_t> values);

  /// Adds `values` (any order): sorts them and merges them in.
  void Add(std::vector<uint64_t> values);

  uint64_t size() const { return sorted_.size(); }
  /// Number of values < v.
  uint64_t Less(uint64_t v) const;
  /// Number of values <= v.
  uint64_t LessEq(uint64_t v) const;
  /// The value of 0-based rank r (r < size()).
  uint64_t AtRank(uint64_t r) const { return sorted_[r]; }

 private:
  std::vector<uint64_t> sorted_;
};

/// The 99-point grid phi = 0.01, 0.02, ..., 0.99.
std::vector<double> PhiGrid();

/// RANK probes: the exact phi-quantile value for each phi of `phis`.
std::vector<uint64_t> RankProbes(const SortedMultiset& exact,
                                 const std::vector<double>& phis);

/// Distance of rank `r` from the interval [lo, hi], as a fraction of n.
double IntervalDistance(double r, uint64_t lo, uint64_t hi, uint64_t n);

/// Rank error of a phi-quantile answer: how far phi * n lies from the exact
/// rank interval [Less(answer), LessEq(answer)], as a fraction of n.
double QuantileError(const SortedMultiset& exact, double phi, uint64_t answer);

/// Rank error of an EstimateRank(probe) answer against the exact interval
/// [Less(probe), LessEq(probe)], as a fraction of n.
double RankError(const SortedMultiset& exact, uint64_t probe,
                 int64_t estimate);

/// Linear-interpolation percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Guarantee latitude by algorithm display name: 1 for the deterministic
/// summaries (GK family, FastQDigest), 3 for the randomized ones.
double Slack(const std::string& algorithm);

/// Collects check failures; a run is correct when none was recorded.
class Verdict {
 public:
  void Fail(const std::string& what);
  bool ok() const { return failures_ == 0; }
  uint64_t failures() const { return failures_; }
  /// The first few failure messages, one per line.
  const std::string& report() const { return report_; }

  /// Fails unless `got == want`.
  void CheckEqual(const std::string& what, uint64_t got, uint64_t want);
  /// Fails when the answer's rank error exceeds `budget` (a fraction of n)
  /// by more than one rank. Returns the error.
  double CheckQuantile(const std::string& who, const SortedMultiset& exact,
                       double phi, uint64_t answer, double budget);
  double CheckRank(const std::string& who, const SortedMultiset& exact,
                   uint64_t probe, int64_t estimate, double budget);
  /// Fails when answers to increasing phis decrease.
  void CheckMonotone(const std::string& who,
                     const std::vector<uint64_t>& answers);
  /// CheckQuantile for answers[i] to phis[i] (increasing), CheckRank for
  /// ranks[i] at probes[i], and CheckMonotone over the answers. Returns the
  /// worst error.
  double CheckGrid(const std::string& who, const SortedMultiset& exact,
                   const std::vector<double>& phis,
                   const std::vector<uint64_t>& answers,
                   const std::vector<uint64_t>& probes,
                   const std::vector<int64_t>& ranks, double budget);

 private:
  uint64_t failures_ = 0;
  std::string report_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
