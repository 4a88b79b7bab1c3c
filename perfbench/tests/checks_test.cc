// The benchmark's own oracle, statistics and inputs, on hand-worked cases,
// plus one failing case per correctness check the workloads make.
#include <gtest/gtest.h>

#include <numeric>

#include "checks.h"
#include "inputs.h"

namespace perfbench {
namespace {

std::vector<uint64_t> Iota(uint64_t from, uint64_t n) {
  std::vector<uint64_t> v(n);
  std::iota(v.begin(), v.end(), from);
  return v;
}

TEST(SortedMultiset, CountsBelowAndAtAValue) {
  const SortedMultiset m({5, 2, 3, 2, 1});
  EXPECT_EQ(m.size(), 5u);
  EXPECT_EQ(m.Less(2), 1u);
  EXPECT_EQ(m.LessEq(2), 3u);
  EXPECT_EQ(m.Less(4), 4u);
  EXPECT_EQ(m.LessEq(4), 4u);
  EXPECT_EQ(m.LessEq(0), 0u);
  EXPECT_EQ(m.Less(9), 5u);
  EXPECT_EQ(m.AtRank(0), 1u);
  EXPECT_EQ(m.AtRank(4), 5u);
}

TEST(SortedMultiset, AddMergesInOrder) {
  SortedMultiset m({5, 1});
  m.Add({3, 2, 9});
  ASSERT_EQ(m.size(), 5u);
  const uint64_t want[] = {1, 2, 3, 5, 9};
  for (uint64_t r = 0; r < 5; ++r) EXPECT_EQ(m.AtRank(r), want[r]);
}

TEST(RankError, HandWorkedQuantiles) {
  const SortedMultiset m(Iota(1, 100));  // 1..100
  // phi * n = 50 lies in 50's interval [49, 50].
  EXPECT_DOUBLE_EQ(QuantileError(m, 0.5, 50), 0.0);
  EXPECT_DOUBLE_EQ(QuantileError(m, 0.5, 51), 0.0);
  // 60's interval is [59, 60]: 9 ranks away.
  EXPECT_DOUBLE_EQ(QuantileError(m, 0.5, 60), 0.09);
  // 40's interval is [39, 40]: 10 ranks away.
  EXPECT_DOUBLE_EQ(QuantileError(m, 0.5, 40), 0.10);
}

TEST(RankError, HandWorkedRanks) {
  const SortedMultiset m({1, 2, 2, 2, 3, 4, 5, 6, 7, 8});
  // Value 2 has the interval [1, 4]: any estimate in it is exact.
  EXPECT_DOUBLE_EQ(RankError(m, 2, 1), 0.0);
  EXPECT_DOUBLE_EQ(RankError(m, 2, 4), 0.0);
  EXPECT_DOUBLE_EQ(RankError(m, 2, 6), 0.2);
  EXPECT_DOUBLE_EQ(RankError(m, 2, 0), 0.1);
}

TEST(RankError, IntervalDistance) {
  EXPECT_DOUBLE_EQ(IntervalDistance(5, 3, 7, 10), 0.0);
  EXPECT_DOUBLE_EQ(IntervalDistance(1, 3, 7, 10), 0.2);
  EXPECT_DOUBLE_EQ(IntervalDistance(9.5, 3, 7, 10), 0.25);
  EXPECT_DOUBLE_EQ(IntervalDistance(9, 3, 7, 0), 0.0);
}

TEST(Percentile, HandWorked) {
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90), 9.1);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 100), 10.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 90), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
}

TEST(Grid, NinetyNinePointsAndTheirExactValues) {
  const std::vector<double> grid = PhiGrid();
  ASSERT_EQ(grid.size(), 99u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.01);
  EXPECT_DOUBLE_EQ(grid.back(), 0.99);
  const SortedMultiset m(Iota(1, 100));
  const std::vector<uint64_t> probes = RankProbes(m, {0.5, 0.99});
  EXPECT_EQ(probes[0], 51u);
  EXPECT_EQ(probes[1], 100u);
}

TEST(Slack, DeterministicOnceRandomizedThrice) {
  EXPECT_EQ(Slack("GKArray"), 1.0);
  EXPECT_EQ(Slack("FastQDigest"), 1.0);
  EXPECT_EQ(Slack("Random"), 3.0);
  EXPECT_EQ(Slack("DCSPost"), 3.0);
}

// --- each check passes on a right output and fails on a wrong one ----------

constexpr double kEps = 0.001;
constexpr uint64_t kN = 100'000;

TEST(Checks, QuantileShiftedByTwoEpsNFails) {
  const SortedMultiset m(Iota(0, kN));
  Verdict right;
  right.CheckQuantile("GKArray", m, 0.5, 50'000, kEps);
  EXPECT_TRUE(right.ok());
  Verdict shifted;
  shifted.CheckQuantile("GKArray", m, 0.5, 50'000 + 2 * kEps * kN, kEps);
  EXPECT_FALSE(shifted.ok());
  // Randomized summaries get 3x: a 2 eps n shift passes, 4 eps n does not.
  Verdict slack;
  slack.CheckQuantile("Random", m, 0.5, 50'000 + 2 * kEps * kN, 3 * kEps);
  EXPECT_TRUE(slack.ok());
  slack.CheckQuantile("Random", m, 0.5, 50'000 + 4 * kEps * kN, 3 * kEps);
  EXPECT_FALSE(slack.ok());
}

TEST(Checks, RankShiftedByTwoEpsNFails) {
  const SortedMultiset m(Iota(0, kN));
  Verdict right;
  right.CheckRank("GKArray", m, 40'000, 40'000, kEps);
  EXPECT_TRUE(right.ok());
  Verdict shifted;
  shifted.CheckRank("GKArray", m, 40'000, 40'000 - 2 * kEps * kN, kEps);
  EXPECT_FALSE(shifted.ok());
}

TEST(Checks, DroppedValueFailsTheCount) {
  const uint64_t sent = 2 * 4096;
  Verdict right;
  right.CheckEqual("STATS count", sent, sent);
  EXPECT_TRUE(right.ok());
  Verdict dropped;
  dropped.CheckEqual("STATS count", sent - 1, sent);
  EXPECT_FALSE(dropped.ok());
  EXPECT_NE(dropped.report().find("STATS count"), std::string::npos);
}

TEST(Checks, RecoveredCountOffByOneFails) {
  Verdict off;
  off.CheckEqual("recovered count", kN + 1, kN);
  EXPECT_FALSE(off.ok());
  EXPECT_EQ(off.failures(), 1u);
}

TEST(Checks, DecreasingAnswersFail) {
  Verdict right;
  right.CheckMonotone("x", {1, 1, 2, 5});
  EXPECT_TRUE(right.ok());
  Verdict wrong;
  wrong.CheckMonotone("x", {1, 3, 2});
  EXPECT_FALSE(wrong.ok());
}

TEST(Checks, GridReturnsTheWorstErrorAndFailsOnOneBadAnswer) {
  const SortedMultiset m(Iota(0, kN));
  const std::vector<double> phis = {0.25, 0.5, 0.75};
  const std::vector<uint64_t> probes = RankProbes(m, phis);
  std::vector<uint64_t> answers = {25'000, 50'050, 75'000};
  const std::vector<int64_t> ranks = {25'000, 50'000, 75'000};
  Verdict right;
  EXPECT_DOUBLE_EQ(right.CheckGrid("GKArray", m, phis, answers, probes, ranks, kEps),
                   0.0005);
  EXPECT_TRUE(right.ok());
  answers[2] = 75'000 + 2 * kEps * kN;
  Verdict wrong;
  EXPECT_DOUBLE_EQ(wrong.CheckGrid("GKArray", m, phis, answers, probes, ranks, kEps),
                   0.002);
  EXPECT_FALSE(wrong.ok());
}

TEST(Checks, ReportKeepsTheFirstFewFailures) {
  Verdict v;
  for (int i = 0; i < 9; ++i) v.Fail("f" + std::to_string(i));
  EXPECT_EQ(v.failures(), 9u);
  EXPECT_NE(v.report().find("f4"), std::string::npos);
  EXPECT_EQ(v.report().find("f5"), std::string::npos);
}

// --- inputs ------------------------------------------------------------------

TEST(Inputs, SameSeedSameStreamOtherSeedOtherStream) {
  const std::vector<uint64_t> a = MpcatStream(50'000, 7);
  EXPECT_EQ(a, MpcatStream(50'000, 7));
  EXPECT_NE(a, MpcatStream(50'000, 8));
  for (const uint64_t v : a) ASSERT_LT(v, kMpcatUniverse);
}

TEST(Inputs, ArrivesInSortedRuns) {
  const std::vector<uint64_t> a = MpcatStream(200'000, 3);
  size_t descents = 0;
  for (size_t i = 1; i < a.size(); ++i) descents += a[i] < a[i - 1];
  // Median run length is 1000, so a few hundred run boundaries at most.
  EXPECT_GT(descents, 20u);
  EXPECT_LT(descents, 1000u);
}

TEST(Inputs, BimodalMixture) {
  const std::vector<uint64_t> a = MpcatStream(200'000, 11);
  const SortedMultiset m(a);
  // The humps at 0.28u and 0.72u hold more mass than the trough at 0.5u.
  const auto mass = [&](double lo, double hi) {
    return m.Less(static_cast<uint64_t>(hi * kMpcatUniverse)) -
           m.Less(static_cast<uint64_t>(lo * kMpcatUniverse));
  };
  EXPECT_GT(mass(0.25, 0.31), 2 * mass(0.47, 0.53));
  EXPECT_GT(mass(0.69, 0.75), 2 * mass(0.47, 0.53));
}

}  // namespace
}  // namespace perfbench
