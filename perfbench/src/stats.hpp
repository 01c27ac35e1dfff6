#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

/// \file stats.hpp
/// The benchmark's own statistics: percentiles with the "at least ten
/// samples beyond" rule, geometric means, due-time latency and the layer
/// subtractions. Pure functions with
/// no library dependency, so tests/test_stats.cpp pins every rule.

namespace perfbench {

/// A percentile read with its support: `quantile` is the percentile that
/// was actually read (0.5 .. 0.99), `n` the sample count and `beyond` how
/// many samples lie strictly after the read rank.
struct Percentile {
  double value = 0.0;
  double quantile = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

inline Percentile median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: no samples");
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  const double mid = n % 2 == 1 ? samples[n / 2]
                                : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  return {mid, 0.5, n, n / 2};
}

/// The tail a sample supports: p99 when at least ten samples lie beyond
/// its rank (n >= 1000); otherwise the highest nearest-rank percentile
/// that still leaves ten beyond, i.e. rank n - 10. Never reads below the
/// median: with fewer than 20 samples the tail is the median itself.
inline Percentile supportedTail(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("tail: no samples");
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  const double nd = static_cast<double>(n);
  double q = 0.99;
  if (n < 1000) q = (nd - 10.0) / nd;
  if (q <= 0.5) return median(std::move(samples));
  auto rank = static_cast<std::size_t>(std::ceil(q * nd - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return {samples[rank - 1], q, n, n - rank};
}

/// Geometric mean of positive values (throws on empty or non-positive
/// input: a zero time means the measurement is broken, not fast).
inline double geomean(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("geomean: no values");
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) throw std::invalid_argument("geomean: non-positive value");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Open-loop latency of one request: completion minus the time it was DUE
/// to be sent (not the time it was sent), so a generator stall is charged
/// to every request it delayed. Nanoseconds in, seconds out.
inline double dueTimeLatency(std::uint64_t due_ns, std::uint64_t done_ns) {
  return done_ns > due_ns ? static_cast<double>(done_ns - due_ns) * 1e-9 : 0.0;
}

// ---- layer subtractions -------------------------------------------------

/// exec.permute_us: what solve() costs beyond the executor alone
/// (solvePermuted), i.e. the two O(n) vector permutations.
inline double permuteCost(double solve, double solve_permuted) {
  return solve - solve_permuted;
}

/// exec.plan_build_ms: analyze() minus the phases timed on their own
/// (DAG build, GrowLocal, validation, reorder); what remains is executor
/// construction plus the schedule statistics.
inline double planBuildCost(double analyze, double dag_build, double growlocal,
                            double validate, double reorder) {
  return analyze - dag_build - growlocal - validate - reorder;
}

/// engine.solve_us_per_rhs: the engine's busy time minus its pack and
/// unpack passes, per solved right-hand side.
inline double engineSolvePerRhs(double busy_s, double pack_s, double unpack_s,
                                double rhs) {
  if (!(rhs > 0.0)) throw std::invalid_argument("engineSolvePerRhs: no rhs");
  return (busy_s - pack_s - unpack_s) / rhs;
}

/// Normwise backward error of a computed x for L x = b:
/// ||b - L x||_inf / (||L||_inf ||x||_inf + ||b||_inf). `residual_inf` is
/// ||b - L x||_inf; the benchmark accepts a solve iff this is at most
/// kTolerance.
inline double backwardError(double residual_inf, double matrix_norm_inf,
                            double x_norm_inf, double b_norm_inf) {
  const double denom = matrix_norm_inf * x_norm_inf + b_norm_inf;
  if (!std::isfinite(residual_inf)) return INFINITY;
  return denom > 0.0 ? residual_inf / denom : residual_inf;
}

/// The one residual tolerance every timed output is checked against.
inline constexpr double kTolerance = 1e-12;

}  // namespace perfbench
