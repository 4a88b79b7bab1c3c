#include "checks.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

SortedMultiset::SortedMultiset(std::vector<uint64_t> values)
    : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
}

void SortedMultiset::Add(std::vector<uint64_t> values) {
  std::sort(values.begin(), values.end());
  const size_t old = sorted_.size();
  sorted_.insert(sorted_.end(), values.begin(), values.end());
  std::inplace_merge(sorted_.begin(),
                     sorted_.begin() + static_cast<std::ptrdiff_t>(old),
                     sorted_.end());
}

uint64_t SortedMultiset::Less(uint64_t v) const {
  return static_cast<uint64_t>(
      std::lower_bound(sorted_.begin(), sorted_.end(), v) - sorted_.begin());
}

uint64_t SortedMultiset::LessEq(uint64_t v) const {
  return static_cast<uint64_t>(
      std::upper_bound(sorted_.begin(), sorted_.end(), v) - sorted_.begin());
}

std::vector<double> PhiGrid() {
  std::vector<double> grid;
  for (int i = 1; i <= 99; ++i) grid.push_back(i / 100.0);
  return grid;
}

std::vector<uint64_t> RankProbes(const SortedMultiset& exact,
                                 const std::vector<double>& phis) {
  std::vector<uint64_t> probes;
  for (const double phi : phis) {
    const auto r = static_cast<uint64_t>(phi * static_cast<double>(exact.size()));
    probes.push_back(exact.AtRank(std::min(r, exact.size() - 1)));
  }
  return probes;
}

double IntervalDistance(double r, uint64_t lo, uint64_t hi, uint64_t n) {
  if (n == 0) return 0.0;
  double d = 0.0;
  if (r < static_cast<double>(lo)) d = static_cast<double>(lo) - r;
  if (r > static_cast<double>(hi)) d = r - static_cast<double>(hi);
  return d / static_cast<double>(n);
}

double QuantileError(const SortedMultiset& exact, double phi,
                     uint64_t answer) {
  return IntervalDistance(phi * static_cast<double>(exact.size()),
                          exact.Less(answer), exact.LessEq(answer),
                          exact.size());
}

double RankError(const SortedMultiset& exact, uint64_t probe,
                 int64_t estimate) {
  return IntervalDistance(static_cast<double>(estimate), exact.Less(probe),
                          exact.LessEq(probe), exact.size());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Slack(const std::string& algorithm) {
  for (const char* deterministic :
       {"GKTheory", "GKAdaptive", "GKArray", "FastQDigest"}) {
    if (algorithm == deterministic) return 1.0;
  }
  return 3.0;
}

void Verdict::Fail(const std::string& what) {
  if (++failures_ <= 5) report_ += what + "\n";
}

void Verdict::CheckEqual(const std::string& what, uint64_t got,
                         uint64_t want) {
  if (got != want) {
    Fail(what + ": got " + std::to_string(got) + ", want " +
         std::to_string(want));
  }
}

double Verdict::CheckQuantile(const std::string& who,
                              const SortedMultiset& exact, double phi,
                              uint64_t answer, double budget) {
  const double err = QuantileError(exact, phi, answer);
  if (err > budget + 1.0 / static_cast<double>(exact.size())) {
    Fail(who + ": phi " + std::to_string(phi) + " answer " +
         std::to_string(answer) + " has rank error " + std::to_string(err) +
         " > " + std::to_string(budget));
  }
  return err;
}

double Verdict::CheckRank(const std::string& who, const SortedMultiset& exact,
                          uint64_t probe, int64_t estimate, double budget) {
  const double err = RankError(exact, probe, estimate);
  if (err > budget + 1.0 / static_cast<double>(exact.size())) {
    Fail(who + ": rank(" + std::to_string(probe) + ") = " +
         std::to_string(estimate) + " has rank error " + std::to_string(err) +
         " > " + std::to_string(budget));
  }
  return err;
}

void Verdict::CheckMonotone(const std::string& who,
                            const std::vector<uint64_t>& answers) {
  for (size_t i = 1; i < answers.size(); ++i) {
    if (answers[i] < answers[i - 1]) {
      Fail(who + ": answers decrease at grid point " + std::to_string(i));
      return;
    }
  }
}

double Verdict::CheckGrid(const std::string& who, const SortedMultiset& exact,
                          const std::vector<double>& phis,
                          const std::vector<uint64_t>& answers,
                          const std::vector<uint64_t>& probes,
                          const std::vector<int64_t>& ranks, double budget) {
  double worst = 0.0;
  for (size_t i = 0; i < phis.size(); ++i) {
    worst = std::max({worst, CheckQuantile(who, exact, phis[i], answers[i], budget),
                      CheckRank(who, exact, probes[i], ranks[i], budget)});
  }
  CheckMonotone(who, answers);
  return worst;
}

}  // namespace perfbench
