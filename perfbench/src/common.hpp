#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "exec/solver.hpp"
#include "sparse/csr.hpp"

/// \file common.hpp
/// Shared pieces of the benchmark driver: the seeded matrix set, the
/// run configuration, output verification and the metric sink.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: derives independent generator seeds from the run seed.
inline std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int width = 4;          ///< W: analysis width and solve team
  std::string out_dir;    ///< where result and trace files go
};

/// One input matrix: the lower-triangular system users hand to analyze(),
/// its family (§6.2) and the seeded right-hand sides the timed loops use.
struct Problem {
  std::string name;
  std::string family;
  sts::sparse::CsrMatrix lower;
  double norm_inf = 0.0;  ///< ||L||_inf, for the backward-error check
  std::vector<std::vector<double>> rhs;
  double workingSetMiB() const;
};

/// The solve_hot / analyze_churn matrix set: one or two matrices per §6.2
/// family, from inside one core's L2 to past the shared L3. Random
/// families take their generator seeds from `seed`; every right-hand side
/// does.
std::vector<Problem> solveMatrixSet(std::uint64_t seed);
/// The two matrices the engine probe registers: one wide, one narrow-band.
std::vector<Problem> serveMatrixSet(std::uint64_t seed);

/// Analysis options of every solver the benchmark builds: defaults except
/// the width.
inline sts::exec::SolverOptions solverOptions(int width) {
  sts::exec::SolverOptions options;
  options.num_threads = width;
  return options;
}

/// The engine probe's configuration: EngineOptions defaults except these
/// three, so workers x team + 1 generator thread <= nproc.
struct ServeConfig {
  int num_workers = 2;
  int team_size = 1;
  std::size_t max_queue_depth = 2048;
};

/// Two single-thread workers: the reference-rate tail repeated best this
/// way (README.md, "Engine probe"); one core stays free.
inline ServeConfig serveConfig(int width) {
  ServeConfig sc;
  sc.num_workers = std::max(1, std::min(width - 1, 2));
  sc.team_size = 1;
  return sc;
}

/// Counts verification outcomes. Every timed output goes through check()
/// outside the timed region.
struct Verifier {
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
  double worst = 0.0;
  /// Backward error of x against the ORIGINAL system L x = b; a miss (or
  /// a non-finite x) is counted as a failed operation.
  bool check(const Problem& p, std::span<const double> b,
             std::span<const double> x);
};

/// Name -> (value, unit), printed in name order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// What one workload run produced.
struct Outcome {
  Metrics end_to_end;
  Metrics per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every output check of the run, timed operations and layer probes
  /// alike; one miss makes the run incorrect.
  Verifier verifier;
  /// Workload-specific detail (sample counts, per-matrix and per-rate
  /// rows, the end-to-end values under their workload-specific names), a
  /// JSON object body without braces.
  std::string detail;
};

double peakRssMiB();
/// Cumulative (steal, total) CPU ticks of the host from /proc/stat; the
/// share of time a virtual machine's CPUs were taken away by the
/// hypervisor explains run-to-run noise. {0, 0} when unreadable.
std::pair<double, double> stealTicks();
/// Host and build provenance as a JSON object body (no braces).
std::string provenanceJson(const RunConfig& cfg);
std::string jsonNumber(double v);

}  // namespace perfbench
