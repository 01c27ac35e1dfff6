// Tests of the benchmark's own statistics and output check.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common.hpp"
#include "exec/solver.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  const Percentile p = supportedTail(ramp(1000));
  EXPECT_DOUBLE_EQ(p.quantile, 0.99);
  EXPECT_DOUBLE_EQ(p.value, 990.0);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_EQ(p.n, 1000u);
}

TEST(Percentile, FewerSamplesFallBackToTheHighestSupported) {
  const Percentile p = supportedTail(ramp(200));
  EXPECT_DOUBLE_EQ(p.value, 190.0);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_NEAR(p.quantile, 0.95, 1e-12);
  // More samples than needed still reads p99, with more than ten beyond.
  const Percentile big = supportedTail(ramp(5000));
  EXPECT_DOUBLE_EQ(big.quantile, 0.99);
  EXPECT_DOUBLE_EQ(big.value, 4950.0);
  EXPECT_EQ(big.beyond, 50u);
}

TEST(Percentile, TailNeverReadsBelowTheMedian) {
  const Percentile p = supportedTail(ramp(12));
  EXPECT_DOUBLE_EQ(p.quantile, 0.5);
  EXPECT_DOUBLE_EQ(p.value, 6.5);
  EXPECT_THROW(supportedTail({}), std::invalid_argument);
}

TEST(Percentile, TailIsOrderIndependent) {
  std::vector<double> v = ramp(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(supportedTail(v).value, 990.0);
  EXPECT_DOUBLE_EQ(median(v).value, 500.5);
}

TEST(Geomean, MatchesClosedForm) {
  const std::vector<double> v = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(v), 4.0, 1e-12);
  const std::vector<double> one = {3.5};
  EXPECT_NEAR(geomean(one), 3.5, 1e-12);
  const std::vector<double> zero = {1.0, 0.0};
  EXPECT_THROW(geomean(zero), std::invalid_argument);
  EXPECT_THROW(geomean(std::vector<double>{}), std::invalid_argument);
}

TEST(DueTime, LatencyCountsFromTheDueTimeNotTheSendTime) {
  // Due at 1.000 s, sent late at 1.004 s, done at 1.005 s: 5 ms, not 1 ms.
  const std::uint64_t due = 1'000'000'000;
  const std::uint64_t done = 1'005'000'000;
  EXPECT_NEAR(dueTimeLatency(due, done), 0.005, 1e-12);
  EXPECT_EQ(dueTimeLatency(done, due), 0.0);
}

TEST(LayerSubtraction, PermutePlanBuildAndEngineSolve) {
  EXPECT_DOUBLE_EQ(permuteCost(150.0, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(planBuildCost(100.0, 10.0, 40.0, 5.0, 15.0), 30.0);
  // busy 2 s, pack 0.5 s, unpack 0.3 s over 400 rhs: 3 ms per rhs.
  EXPECT_NEAR(engineSolvePerRhs(2.0, 0.5, 0.3, 400.0), 0.003, 1e-15);
  EXPECT_THROW(engineSolvePerRhs(1.0, 0.0, 0.0, 0.0), std::invalid_argument);
}

TEST(Verification, CorruptedSolutionIsCountedAsFailed) {
  const std::vector<Problem> problems = serveMatrixSet(7);
  const Problem& p = problems.front();
  const auto solver = sts::exec::TriangularSolver::analyze(p.lower, solverOptions(2));
  std::vector<double> x(static_cast<std::size_t>(p.lower.rows()));
  solver.solve(p.rhs[0], x);
  Verifier v;
  EXPECT_TRUE(v.check(p, p.rhs[0], x));
  EXPECT_EQ(v.failed, 0u);
  EXPECT_LE(v.worst, kTolerance);

  std::vector<double> corrupted = x;
  corrupted[corrupted.size() / 2] += 1e-6;
  EXPECT_FALSE(v.check(p, p.rhs[0], corrupted));
  corrupted = x;
  corrupted[0] = std::nan("");
  EXPECT_FALSE(v.check(p, p.rhs[0], corrupted));
  EXPECT_EQ(v.checked, 3u);
  EXPECT_EQ(v.failed, 2u);
}

}  // namespace
}  // namespace perfbench
