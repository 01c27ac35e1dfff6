#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "check/check.hpp"
#include "datagen/grids.hpp"
#include "datagen/random_matrices.hpp"
#include "fault/failpoint.hpp"
#include "sparse/ic0.hpp"
#include "sparse/ordering.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using sts::index_t;
using sts::sparse::CsrMatrix;

namespace {

std::vector<std::vector<double>> seededRhs(index_t n, std::uint64_t seed,
                                           int count) {
  std::vector<std::vector<double>> out;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int k = 0; k < count; ++k) {
    std::vector<double> b(static_cast<std::size_t>(n));
    for (double& v : b) v = dist(rng);
    out.push_back(std::move(b));
  }
  return out;
}

double normInf(const CsrMatrix& m) {
  double norm = 0.0;
  for (index_t i = 0; i < m.rows(); ++i) {
    double row = 0.0;
    for (const double v : m.rowValues(i)) row += std::abs(v);
    norm = std::max(norm, row);
  }
  return norm;
}

Problem makeProblem(std::string name, std::string family, CsrMatrix lower,
                    std::uint64_t rhs_seed, int rhs_count) {
  Problem p;
  p.name = std::move(name);
  p.family = std::move(family);
  p.norm_inf = normInf(lower);
  p.rhs = seededRhs(lower.rows(), rhs_seed, rhs_count);
  p.lower = std::move(lower);
  return p;
}

std::string readCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string envOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : fallback;
}

/// ||b - L x||_inf over the original matrix; NaN propagates.
double residualInf(const CsrMatrix& lower, std::span<const double> x,
                   std::span<const double> b) {
  double worst = 0.0;
  for (index_t i = 0; i < lower.rows(); ++i) {
    const auto cols = lower.rowCols(i);
    const auto vals = lower.rowValues(i);
    double ax = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      ax += vals[k] * x[static_cast<std::size_t>(cols[k])];
    }
    const double r = std::abs(b[static_cast<std::size_t>(i)] - ax);
    if (!(r <= worst)) worst = r;
  }
  return worst;
}

}  // namespace

double Problem::workingSetMiB() const {
  // CSR (8-byte value + 4-byte column per entry, row pointers) plus the
  // b/x vectors and the solver's permutation scratch.
  const double bytes = static_cast<double>(lower.nnz()) * 12.0 +
                       static_cast<double>(lower.rows()) * (8.0 + 4 * 8.0);
  return bytes / (1024.0 * 1024.0);
}

std::vector<Problem> solveMatrixSet(std::uint64_t seed) {
  using namespace sts::datagen;
  std::vector<Problem> set;
  auto add = [&](std::string name, std::string family, CsrMatrix lower,
                 int rhs) {
    set.push_back(makeProblem(std::move(name), std::move(family),
                              std::move(lower), mixSeed(seed, 100 + set.size()),
                              rhs));
  };
  // Narrow band: barrier bound; the first fits in one core's L2.
  add("nb_p14_b10", "narrow-band",
      narrowBandLower({.n = 20000, .p = 0.14, .b = 10.0,
                       .seed = mixSeed(seed, 1)}),
      2);
  add("nb_p03_b42", "narrow-band",
      narrowBandLower({.n = 40000, .p = 0.03, .b = 42.0,
                       .seed = mixSeed(seed, 2)}),
      2);
  // Erdos-Renyi: wide, irregular.
  add("er_d5", "erdos-renyi",
      erdosRenyiLower({.n = 60000, .p = 10.0 / 60000, .seed = mixSeed(seed, 3)}),
      2);
  add("er_d25", "erdos-renyi",
      erdosRenyiLower({.n = 60000, .p = 50.0 / 60000, .seed = mixSeed(seed, 4)}),
      2);
  // Grid Laplacian in natural order.
  add("grid2d_5pt", "grid", grid2dLaplacian5(300, 300).lowerTriangle(), 2);
  // Nested-dissection-permuted 3D Laplacian (the METIS stand-in).
  {
    const CsrMatrix spd = grid3dLaplacian7(45, 45, 45);
    const auto nd = sts::sparse::nestedDissection(spd);
    add("grid3d_7pt_nd", "nd-permuted",
        spd.symmetricPermuted(nd).lowerTriangle(), 2);
  }
  // RCM + IC(0) factor of a 9-point Laplacian: long chains, barrier bound.
  {
    const CsrMatrix spd = grid2dLaplacian9(220, 220);
    const auto rcm = sts::sparse::reverseCuthillMcKee(spd);
    add("grid2d_9pt_ic0", "rcm-ic0",
        sts::sparse::incompleteCholesky(spd.symmetricPermuted(rcm)).lower, 2);
  }
  // Past the shared L3: a 2.25M-row grid Laplacian.
  add("grid2d_5pt_big", "grid",
      grid2dLaplacian5(1500, 1500).lowerTriangle(), 1);
  return set;
}

std::vector<Problem> serveMatrixSet(std::uint64_t seed) {
  using namespace sts::datagen;
  std::vector<Problem> set;
  set.push_back(makeProblem("grid2d_5pt_200", "grid",
                            grid2dLaplacian5(200, 200).lowerTriangle(),
                            mixSeed(seed, 200), 16));
  set.push_back(makeProblem("nb_p14_b10", "narrow-band",
                            narrowBandLower({.n = 20000, .p = 0.14, .b = 10.0,
                                             .seed = mixSeed(seed, 201)}),
                            mixSeed(seed, 202), 16));
  return set;
}

bool Verifier::check(const Problem& p, std::span<const double> b,
                     std::span<const double> x) {
  ++checked;
  double x_norm = 0.0;
  double b_norm = 0.0;
  bool finite = x.size() == b.size();
  for (std::size_t i = 0; finite && i < x.size(); ++i) {
    finite = std::isfinite(x[i]);
    x_norm = std::max(x_norm, std::abs(x[i]));
    b_norm = std::max(b_norm, std::abs(b[i]));
  }
  const double err =
      finite ? backwardError(residualInf(p.lower, x, b), p.norm_inf, x_norm,
                             b_norm)
             : INFINITY;
  if (!(err <= worst)) worst = err;
  const bool ok = err <= kTolerance;
  if (!ok) ++failed;
  return ok;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Metrics::json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    if (!first) out += ", ";
    first = false;
    out += jsonString(name) + ": {\"value\": " + jsonNumber(vu.first) +
           ", \"unit\": " + jsonString(vu.second) + "}";
  }
  return out + "}";
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::pair<double, double> stealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0;
  double steal = 0.0;
  double field = 0.0;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  for (int i = 0; i < 8 && in >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return cpu == "cpu" ? std::pair{steal, total} : std::pair{0.0, 0.0};
}

std::string provenanceJson(const RunConfig& cfg) {
  std::ostringstream os;
  os << "\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu_model\":" << jsonString(readCpuModel()) << ","
     << sts::bench::hostMetaJson()
     << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
     << ",\"sts_tracing\":" << STS_TRACING << ",\"sts_faults\":" << STS_FAULTS
     << ",\"sts_checks\":" << STS_CHECKS
     << ",\"commit\":" << jsonString(envOr("PERFBENCH_COMMIT", "unknown"))
     << ",\"source_digest\":"
     << jsonString(envOr("PERFBENCH_SOURCE_DIGEST", "unknown"))
     << ",\"seed\":" << cfg.seed << ",\"width\":" << cfg.width
     << ",\"workload\":" << jsonString(cfg.workload)
     << ",\"seconds\":" << jsonNumber(cfg.seconds)
     << ",\"trace\":" << (cfg.trace ? "true" : "false")
     << ",\"tolerance\":" << jsonNumber(kTolerance);
  const ServeConfig sc = serveConfig(cfg.width);
  os << ",\"engine\":{\"num_workers\":" << sc.num_workers
     << ",\"team_size\":" << sc.team_size
     << ",\"max_queue_depth\":" << sc.max_queue_depth << "}";
  return os.str();
}

}  // namespace perfbench
