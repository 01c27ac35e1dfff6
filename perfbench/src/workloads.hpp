#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"

/// \file workloads.hpp
/// The workloads and the layer probes their traced runs share.

namespace perfbench {

using SolverPtr = std::shared_ptr<const sts::exec::TriangularSolver>;

Outcome runSolveHot(const RunConfig& cfg);
Outcome runAnalyzeChurn(const RunConfig& cfg);

/// Traced runs only: the engine layer, measured by an open-loop stream of
/// single-RHS submits over a wide and a narrow solver at a reference and a
/// top rate, so every traced run reports the engine.* metrics.
void addEngineProbe(const RunConfig& cfg, Outcome& out, Verifier& verifier);

/// Traced runs only: analysis phases, schedule quality, executor
/// attribution and the paper baselines over `problems` (solvers are the
/// workload's analyzed ones, in the same order).
void addLayerProbes(const RunConfig& cfg, const std::vector<Problem>& problems,
                    const std::vector<SolverPtr>& solvers, Outcome& out,
                    Verifier& verifier);

/// Analyze every problem once; returns the wall time of the whole set.
double analyzeAll(const std::vector<Problem>& problems, int width,
                  std::vector<SolverPtr>& solvers);

/// A benchmark span around one layer call (`name` must be a literal).
/// While a trace session runs, the span's interval is logged, and
/// TraceControl::finish() emits every logged span on its own "perfbench
/// layers" track: the executors' superstep spans flood the per-thread
/// rings, which drop their oldest events, so spans emitted inline on the
/// solving thread would be lost.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t t0_ = 0;
};

/// The process-wide Perfetto session of a traced run. start() begins
/// collection; finish() emits the logged benchmark spans, stops the
/// session and writes the trace file, returning its path (empty when
/// tracing is off or the write failed).
class TraceControl {
 public:
  void start();
  std::string finish(const RunConfig& cfg);

 private:
  std::shared_ptr<sts::obs::TraceSession> session_;
};

}  // namespace perfbench
