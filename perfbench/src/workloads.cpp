// solve_hot, analyze_churn and the layer probes of traced runs.

#include "workloads.hpp"

#include <algorithm>
#include <random>
#include <sstream>
#include <thread>

#include "core/growlocal.hpp"
#include "core/reorder.hpp"
#include "core/schedule.hpp"
#include "dag/dag.hpp"
#include "dag/transitive.hpp"
#include "exec/affinity.hpp"
#include "exec/serial.hpp"
#include "exec/tile.hpp"
#include "stats.hpp"

namespace perfbench {

using sts::exec::SolveContext;
using sts::exec::TriangularSolver;

namespace {

/// Wall seconds of one call.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return secondsSince(t0);
}

constexpr std::uint64_t kVerifyEvery = 8;

struct SolveRun {
  std::vector<double> samples;
  std::uint64_t verified = 0;
};

/// Warm single-RHS solve() calls on one context for `seconds`: every call
/// timed, a seeded one-in-kVerifyEvery sample (and the first call)
/// verified outside the timed region.
SolveRun timeSolves(const Problem& p, const TriangularSolver& solver,
                    SolveContext& ctx, double seconds, std::mt19937_64& rng,
                    Verifier& verifier, Outcome& out) {
  SolveRun run;
  std::vector<double> x(static_cast<std::size_t>(p.lower.rows()));
  for (int w = 0; w < 3; ++w) solver.solve(p.rhs[0], x, ctx);
  const auto start = Clock::now();
  for (std::size_t i = 0; secondsSince(start) < seconds || i < 30; ++i) {
    const auto& b = p.rhs[i % p.rhs.size()];
    ++out.attempted;
    try {
      const auto t0 = Clock::now();
      solver.solve(b, x, ctx);
      run.samples.push_back(secondsSince(t0));
    } catch (const std::exception&) {
      ++out.failed;
      continue;
    }
    if (i == 0 || rng() % kVerifyEvery == 0) {
      ++run.verified;
      if (!verifier.check(p, b, x)) ++out.failed;
    }
  }
  return run;
}

/// Share of the timed budget each matrix gets: past-L3 matrices solve in
/// milliseconds, so they get three shares to support a tail.
std::vector<double> timeSlices(const std::vector<Problem>& problems,
                               double seconds) {
  const double l3_mib =
      static_cast<double>(sts::exec::cacheGeometry().l3_bytes) / 1048576.0;
  std::vector<double> weights;
  double total = 0.0;
  for (const auto& p : problems) {
    weights.push_back(p.workingSetMiB() > l3_mib ? 3.0 : 1.0);
    total += weights.back();
  }
  for (double& w : weights) w = w / total * seconds;
  return weights;
}

/// Three set-ups, each on another CPU (see churnPasses for why), median.
double medianSetup(const std::vector<Problem>& problems, int width,
                   std::vector<SolverPtr>& solvers) {
  const std::vector<int> cpus = sts::exec::systemCoreSet();
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    solvers.clear();
    const sts::exec::ScopedPin pin(cpus, rep);
    setups.push_back(analyzeAll(problems, width, solvers));
  }
  return median(setups).value;
}

/// The median over rounds of a per-round percentile, reported with the
/// total sample count and the weakest round's support.
Percentile roundMedian(const std::vector<Percentile>& rounds) {
  std::vector<double> values;
  Percentile out{0.0, 1.0, 0, SIZE_MAX};
  for (const Percentile& p : rounds) {
    values.push_back(p.value);
    out.quantile = std::min(out.quantile, p.quantile);
    out.n += p.n;
    out.beyond = std::min(out.beyond, p.beyond);
  }
  out.value = median(values).value;
  return out;
}

struct HotResult {
  std::vector<Percentile> p50;
  std::vector<Percentile> tail;
  std::vector<double> rate;
  std::uint64_t verified = 0;
};

/// Rounds the timed budget is split into: every matrix runs once per
/// round, and its p50 and tail are medians over the rounds, so a slow
/// episode on the host moves one round of each matrix, not the result.
constexpr int kHotRounds = 5;

HotResult hotPass(const std::vector<Problem>& problems,
                  const std::vector<SolverPtr>& solvers,
                  const std::vector<double>& slices, bool arm_trace,
                  std::uint64_t seed, Verifier& verifier, Outcome& out) {
  HotResult r;
  std::mt19937_64 rng(seed);
  const std::size_t count = problems.size();
  std::vector<std::unique_ptr<SolveContext>> contexts;
  std::vector<sts::obs::SolveTrace> sinks(count);
  std::vector<std::vector<Percentile>> p50(count), tail(count);
  std::vector<double> solves(count, 0.0), busy(count, 0.0);
  for (std::size_t m = 0; m < count; ++m) {
    contexts.push_back(solvers[m]->createContext());
    if (arm_trace) contexts[m]->setTrace(&sinks[m]);
  }
  // The calling thread leads the OpenMP team; rotating it over the CPUs
  // round by round samples every CPU (see churnPasses for why). The team's
  // threads inherit the affinity of the thread that first forks them, so
  // one solve runs unpinned first to create them with the full mask.
  std::vector<double> x(static_cast<std::size_t>(problems[0].lower.rows()));
  solvers[0]->solve(problems[0].rhs[0], x, *contexts[0]);
  const std::vector<int> cpus = sts::exec::systemCoreSet();
  for (int round = 0; round < kHotRounds; ++round) {
    const sts::exec::ScopedPin pin(cpus, round);
    for (std::size_t m = 0; m < count; ++m) {
      BenchSpan span("solve_hot.matrix");
      SolveRun run = timeSolves(problems[m], *solvers[m], *contexts[m],
                                slices[m] / kHotRounds, rng, verifier, out);
      for (const double t : run.samples) busy[m] += t;
      solves[m] += static_cast<double>(run.samples.size());
      p50[m].push_back(median(run.samples));
      tail[m].push_back(supportedTail(std::move(run.samples)));
      r.verified += run.verified;
    }
  }
  for (std::size_t m = 0; m < count; ++m) {
    r.rate.push_back(solves[m] / busy[m]);
    r.p50.push_back(roundMedian(p50[m]));
    r.tail.push_back(roundMedian(tail[m]));
  }
  return r;
}

double geomeanOf(const std::vector<Percentile>& ps) {
  std::vector<double> v;
  for (const auto& p : ps) v.push_back(p.value);
  return geomean(v);
}

std::string matrixJson(const Problem& p, const Percentile& p50,
                       const Percentile& tail) {
  std::ostringstream os;
  os << "{\"name\":\"" << p.name << "\",\"family\":\"" << p.family
     << "\",\"rows\":" << p.lower.rows() << ",\"nnz\":" << p.lower.nnz()
     << ",\"working_set_mib\":" << jsonNumber(p.workingSetMiB())
     << ",\"samples\":" << p50.n << ",\"p50_us\":" << jsonNumber(p50.value * 1e6)
     << ",\"tail_us\":" << jsonNumber(tail.value * 1e6)
     << ",\"tail_quantile\":" << jsonNumber(tail.quantile)
     << ",\"beyond_tail\":" << tail.beyond << "}";
  return os.str();
}

}  // namespace

double analyzeAll(const std::vector<Problem>& problems, int width,
                  std::vector<SolverPtr>& solvers) {
  const auto t0 = Clock::now();
  for (const auto& p : problems) {
    BenchSpan span("analyze");
    solvers.push_back(std::make_shared<const TriangularSolver>(
        TriangularSolver::analyze(p.lower, solverOptions(width))));
  }
  return secondsSince(t0);
}

namespace {

struct LoggedSpan {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
};

/// Written by the benchmark's main thread only; read by finish() after
/// that thread has stopped logging.
std::vector<LoggedSpan>& spanLog() {
  static std::vector<LoggedSpan> log;
  return log;
}

}  // namespace

BenchSpan::BenchSpan(const char* name) : name_(name) {
  if (sts::obs::tracingActive()) t0_ = sts::obs::nowNanos();
}

BenchSpan::~BenchSpan() {
  if (t0_ != 0) spanLog().push_back({name_, t0_, sts::obs::nowNanos()});
}

void TraceControl::start() {
  spanLog().clear();
  session_ = sts::obs::TraceSession::start();
  session_->nameCurrentThread("perfbench main");
}

std::string TraceControl::finish(const RunConfig& cfg) {
  if (session_ == nullptr) return "";
  std::thread emitter([this] {
    session_->nameCurrentThread("perfbench layers");
    for (const LoggedSpan& s : spanLog()) {
      sts::obs::emitSpanAt("bench", s.name, s.begin_ns, s.end_ns);
    }
  });
  emitter.join();
  session_->stop();
  const std::string path = cfg.out_dir + "/trace_" + cfg.workload + "_seed" +
                           std::to_string(cfg.seed) + ".json";
  const bool ok = session_->writeJson(path);
  session_.reset();
  return ok ? path : "";
}

Outcome runSolveHot(const RunConfig& cfg) {
  Outcome out;
  Verifier& verifier = out.verifier;
  const std::vector<Problem> problems = solveMatrixSet(cfg.seed);
  std::vector<SolverPtr> solvers;
  const double setup = medianSetup(problems, cfg.width, solvers);
  TraceControl trace;

  std::vector<double> slices = timeSlices(problems, cfg.seconds);
  double untraced_p50 = 0.0;
  if (cfg.trace) {
    for (double& s : slices) s *= 0.5;
    untraced_p50 = geomeanOf(hotPass(problems, solvers, slices, false,
                                     mixSeed(cfg.seed, 7), verifier, out)
                                 .p50);
    trace.start();
  }
  const HotResult hot = hotPass(problems, solvers, slices, cfg.trace,
                                mixSeed(cfg.seed, 8), verifier, out);
  const double p50 = geomeanOf(hot.p50);
  out.end_to_end.set("setup_s", setup, "s");
  out.end_to_end.set("p50_us", p50 * 1e6, "us");
  out.end_to_end.set("tail_us", geomeanOf(hot.tail) * 1e6, "us");
  out.end_to_end.set("rate_per_s", geomean(hot.rate), "1/s");
  if (cfg.trace) {
    out.per_layer.set("obs.trace_overhead", p50 / untraced_p50, "ratio");
    addLayerProbes(cfg, problems, solvers, out, verifier);
    addEngineProbe(cfg, out, verifier);
  }

  std::ostringstream os;
  os << "\"solve_p50_us\":" << jsonNumber(p50 * 1e6)
     << ",\"solve_p99_us\":" << jsonNumber(geomeanOf(hot.tail) * 1e6)
     << ",\"verified_sample\":" << hot.verified
     << ",\"worst_backward_error\":" << jsonNumber(verifier.worst)
     << ",\"matrices\":[";
  for (std::size_t m = 0; m < problems.size(); ++m) {
    os << (m ? "," : "") << matrixJson(problems[m], hot.p50[m], hot.tail[m]);
  }
  os << "]";
  if (cfg.trace) os << ",\"trace_file\":\"" << trace.finish(cfg) << "\"";
  out.detail = os.str();
  return out;
}

namespace {

constexpr int kChurnSolves = 10;

struct ChurnResult {
  std::vector<std::vector<double>> analyze;  // per matrix
  std::vector<double> pass;
};

void churnPasses(const std::vector<Problem>& problems, int width,
                 double seconds, ChurnResult& r, Verifier& verifier,
                 Outcome& out) {
  r.analyze.resize(problems.size());
  const std::vector<int> cpus = sts::exec::systemCoreSet();
  const auto start = Clock::now();
  while (secondsSince(start) < seconds || r.pass.size() < 3) {
    BenchSpan pass_span("churn.pass");
    double pass = 0.0;
    for (std::size_t m = 0; m < problems.size(); ++m) {
      const Problem& p = problems[m];
      ++out.attempted;
      std::unique_ptr<TriangularSolver> solver;
      try {
        const auto t0 = Clock::now();
        {
          // analyze() runs on this thread alone, and on the reference host
          // one vCPU analyzes 20% faster than the others: rotating the
          // call over the CPUs pass by pass makes every run sample all of
          // them, instead of reading fast or slow as a whole.
          const sts::exec::ScopedPin pin(
              cpus, static_cast<int>(r.pass.size() + m));
          BenchSpan span("analyze");
          solver = std::make_unique<TriangularSolver>(
              TriangularSolver::analyze(p.lower, solverOptions(width)));
        }
        const double t = secondsSince(t0);
        r.analyze[m].push_back(t);
        pass += t;
      } catch (const std::exception&) {
        ++out.failed;
        continue;
      }
      auto ctx = solver->createContext();
      std::vector<double> x(static_cast<std::size_t>(p.lower.rows()));
      for (int k = 0; k < kChurnSolves; ++k) {
        const auto& b = p.rhs[static_cast<std::size_t>(k) % p.rhs.size()];
        ++out.attempted;
        try {
          const auto t0 = Clock::now();
          solver->solve(b, x, *ctx);
          pass += secondsSince(t0);
        } catch (const std::exception&) {
          ++out.failed;
          continue;
        }
        if (!verifier.check(p, b, x)) ++out.failed;
      }
    }
    r.pass.push_back(pass);
  }
}

}  // namespace

Outcome runAnalyzeChurn(const RunConfig& cfg) {
  Outcome out;
  Verifier& verifier = out.verifier;
  const std::vector<Problem> problems = solveMatrixSet(cfg.seed);
  std::vector<SolverPtr> solvers;
  const double setup = medianSetup(problems, cfg.width, solvers);
  if (!cfg.trace) solvers.clear();  // only the layer probes reuse them
  TraceControl trace;

  double untraced_p50 = 0.0;
  double budget = cfg.seconds;
  if (cfg.trace) {
    budget *= 0.5;
    ChurnResult warm;
    churnPasses(problems, cfg.width, budget, warm, verifier, out);
    std::vector<double> medians;
    for (const auto& a : warm.analyze) medians.push_back(median(a).value);
    untraced_p50 = geomean(medians);
    trace.start();
  }
  ChurnResult churn;
  churnPasses(problems, cfg.width, budget, churn, verifier, out);
  std::vector<double> p50s;
  std::vector<double> tails;
  std::vector<Percentile> p50p;
  std::vector<Percentile> tailp;
  for (const auto& a : churn.analyze) {
    p50p.push_back(median(a));
    tailp.push_back(supportedTail(a));
    p50s.push_back(p50p.back().value);
    tails.push_back(tailp.back().value);
  }
  const double p50 = geomean(p50s);
  const Percentile pass = median(churn.pass);
  out.end_to_end.set("setup_s", setup, "s");
  out.end_to_end.set("p50_us", p50 * 1e6, "us");
  out.end_to_end.set("tail_us", geomean(tails) * 1e6, "us");
  out.end_to_end.set("rate_per_s",
                     static_cast<double>(problems.size()) / pass.value, "1/s");
  if (cfg.trace) {
    out.per_layer.set("obs.trace_overhead", p50 / untraced_p50, "ratio");
    addLayerProbes(cfg, problems, solvers, out, verifier);
    addEngineProbe(cfg, out, verifier);
  }

  std::ostringstream os;
  os << "\"analyze_p50_ms\":" << jsonNumber(p50 * 1e3)
     << ",\"churn_pass_s\":" << jsonNumber(pass.value)
     << ",\"passes\":" << pass.n << ",\"solves_per_matrix_per_pass\":"
     << kChurnSolves << ",\"verified\":" << verifier.checked
     << ",\"worst_backward_error\":" << jsonNumber(verifier.worst)
     << ",\"matrices\":[";
  for (std::size_t m = 0; m < problems.size(); ++m) {
    os << (m ? "," : "") << matrixJson(problems[m], p50p[m], tailp[m]);
  }
  os << "]";
  if (cfg.trace) os << ",\"trace_file\":\"" << trace.finish(cfg) << "\"";
  out.detail = os.str();
  return out;
}

// ---- layer probes (traced runs) ------------------------------------------

namespace {

/// Median of `reps` timed calls after `warm` untimed ones, each call in a
/// benchmark span named `name` (a string literal).
template <typename Fn>
double medianOf(const char* name, int warm, int reps, Fn&& fn) {
  for (int i = 0; i < warm; ++i) fn();
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    BenchSpan span(name);
    samples.push_back(timed(fn));
  }
  return median(samples).value;
}

/// Solve repetitions that fit about `budget` seconds given one solve's
/// time, clamped to [10, 200].
int repsFor(double one_solve, double budget) {
  return std::clamp(static_cast<int>(budget / std::max(one_solve, 1e-7)), 10,
                    200);
}

struct AnalysisPhases {
  double dag = 0, growlocal = 0, validate = 0, reorder = 0, analyze = 0,
         transitive = 0;
};

AnalysisPhases timePhases(const Problem& p, int width) {
  using namespace sts;
  AnalysisPhases ph;
  const int reps = p.lower.rows() > 1'000'000 ? 1 : 3;
  dag::Dag graph;
  ph.dag = medianOf("dag.build", 0, reps, [&] {
    graph = dag::Dag::fromLowerTriangular(p.lower);
  });
  core::GrowLocalOptions gl = solverOptions(width).growlocal;
  gl.num_cores = width;
  core::Schedule schedule;
  ph.growlocal = medianOf("core.growlocal", 0, reps, [&] {
    schedule = core::growLocalSchedule(graph, gl);
  });
  ph.validate = medianOf("core.validate", 0, reps, [&] {
    if (!core::validateSchedule(graph, schedule).ok) {
      throw std::logic_error("perfbench: invalid GrowLocal schedule");
    }
  });
  ph.reorder = medianOf("core.reorder", 0, reps, [&] {
    auto problem = core::reorderForLocality(p.lower, schedule);
    (void)problem;
  });
  ph.analyze = medianOf("analyze", 0, reps, [&] {
    auto s = exec::TriangularSolver::analyze(p.lower, solverOptions(width));
    (void)s;
  });
  ph.transitive = medianOf("dag.transitive_reduction", 0, 1, [&] {
    auto reduced = dag::approximateTransitiveReduction(graph);
    (void)reduced;
  });
  return ph;
}

struct ExecProbe {
  double solve = 0, permuted = 0, team1 = 0, serial = 0;
  double compute = 0, wait = 0, crossings = 0, max_wait = 0;
  double bytes = 0, flops = 0;
};

ExecProbe probeExec(const Problem& p, const TriangularSolver& solver, int width,
                    Verifier& verifier) {
  ExecProbe e;
  const auto n = static_cast<std::size_t>(p.lower.rows());
  const auto& b = p.rhs[0];
  std::vector<double> x(n);
  auto ctx = solver.createContext();
  const int team = solver.defaultTeam();
  const double one =
      timed([&] { solver.solve(b, x, *ctx); });
  const int reps = repsFor(one, 0.25);
  e.solve = medianOf("exec.solve", 2, reps, [&] { solver.solve(b, x, *ctx); });
  verifier.check(p, b, x);
  e.permuted = medianOf("exec.solve_permuted", 2, reps,
                        [&] { solver.solvePermuted(b, x, *ctx); });
  e.team1 = medianOf("exec.team1", 2, repsFor(e.solve * width, 0.25),
                     [&] { solver.solve(b, x, *ctx, 1); });
  verifier.check(p, b, x);
  e.serial = medianOf("exec.serial", 2, repsFor(e.solve * width, 0.25),
                      [&] { sts::exec::solveLowerSerial(p.lower, b, x); });
  verifier.check(p, b, x);
  // Per-solve compute/wait attribution from the executors' StepTracers.
  std::vector<double> max_waits;
  double compute = 0, wait = 0, steps = 0;
  for (int i = 0; i < reps; ++i) {
    sts::obs::SolveTrace sink;
    ctx->setTrace(&sink);
    solver.solve(b, x, *ctx);
    ctx->setTrace(nullptr);
    compute += static_cast<double>(sink.compute_ns.load());
    wait += static_cast<double>(sink.wait_ns.load());
    steps += static_cast<double>(sink.thread_steps.load());
    max_waits.push_back(static_cast<double>(sink.max_wait_ns.load()));
  }
  e.compute = compute / reps * 1e-9;
  e.wait = wait / reps * 1e-9;
  e.crossings = steps / reps;
  e.max_wait = median(max_waits).value * 1e-9;
  e.bytes = static_cast<double>(solver.storageBytesMoved(
                team, solver.options().fold_policy, solver.options().storage)) +
            2.0 * static_cast<double>(n) * sizeof(double);
  e.flops = 2.0 * static_cast<double>(p.lower.nnz()) - static_cast<double>(n);
  return e;
}

struct BaselineProbe {
  double analyze = 0, solve = 0, supersteps = 0;
};

BaselineProbe probeBaseline(const Problem& p, sts::exec::SchedulerKind kind,
                            int width, const char* analyze_span,
                            const char* solve_span, Verifier& verifier) {
  BaselineProbe r;
  sts::exec::SolverOptions options = solverOptions(width);
  options.scheduler = kind;
  std::unique_ptr<TriangularSolver> solver;
  r.analyze = medianOf(analyze_span, 0, 1, [&] {
    solver = std::make_unique<TriangularSolver>(
        TriangularSolver::analyze(p.lower, options));
  });
  std::vector<double> x(static_cast<std::size_t>(p.lower.rows()));
  auto ctx = solver->createContext();
  const double one = timed([&] { solver->solvePermuted(p.rhs[0], x, *ctx); });
  r.solve = medianOf(solve_span, 2, repsFor(one, 0.15),
                     [&] { solver->solvePermuted(p.rhs[0], x, *ctx); });
  solver->solve(p.rhs[0], x, *ctx);
  verifier.check(p, p.rhs[0], x);
  r.supersteps = static_cast<double>(solver->schedule().numSupersteps());
  return r;
}

}  // namespace

void addLayerProbes(const RunConfig& cfg, const std::vector<Problem>& problems,
                    const std::vector<SolverPtr>& solvers, Outcome& out,
                    Verifier& verifier) {
  BenchSpan span("layer_probes");
  AnalysisPhases sum;
  std::vector<double> barrier_reduction, imbalance, solve, permuted, team1,
      serial, compute, wait, max_wait, bytes, flops, gbps, hdagg_solve,
      spmp_solve, hdagg_analyze, spmp_analyze, vs_serial, vs_hdagg, vs_spmp,
      bar_vs_hdagg, amortization;
  double supersteps = 0, crossings = 0;
  for (std::size_t m = 0; m < problems.size(); ++m) {
    const Problem& p = problems[m];
    const TriangularSolver& solver = *solvers[m];
    const AnalysisPhases ph = timePhases(p, cfg.width);
    sum.dag += ph.dag;
    sum.growlocal += ph.growlocal;
    sum.validate += ph.validate;
    sum.reorder += ph.reorder;
    sum.analyze += ph.analyze;
    sum.transitive += ph.transitive;

    supersteps += static_cast<double>(solver.schedule().numSupersteps());
    barrier_reduction.push_back(solver.stats().wavefront_reduction);
    imbalance.push_back(solver.stats().imbalance);

    const ExecProbe e = probeExec(p, solver, cfg.width, verifier);
    solve.push_back(e.solve);
    permuted.push_back(e.permuted);
    team1.push_back(e.team1);
    serial.push_back(e.serial);
    compute.push_back(e.compute);
    wait.push_back(std::max(e.wait, 1e-9));
    max_wait.push_back(std::max(e.max_wait, 1e-9));
    crossings += e.crossings;
    bytes.push_back(e.bytes);
    flops.push_back(e.flops);
    gbps.push_back(e.bytes / e.permuted * 1e-9);

    const BaselineProbe h =
        probeBaseline(p, sts::exec::SchedulerKind::kHdagg, cfg.width,
                      "baselines.hdagg_analyze", "baselines.hdagg_solve",
                      verifier);
    const BaselineProbe s =
        probeBaseline(p, sts::exec::SchedulerKind::kSpmp, cfg.width,
                      "baselines.spmp_analyze", "baselines.spmp_solve",
                      verifier);
    hdagg_solve.push_back(h.solve);
    spmp_solve.push_back(s.solve);
    hdagg_analyze.push_back(h.analyze);
    spmp_analyze.push_back(s.analyze);
    vs_serial.push_back(e.serial / e.permuted);
    vs_hdagg.push_back(h.solve / e.permuted);
    vs_spmp.push_back(s.solve / e.permuted);
    bar_vs_hdagg.push_back(
        h.supersteps / static_cast<double>(solver.schedule().numSupersteps()));
    if (e.serial > e.permuted) {
      amortization.push_back(ph.analyze / (e.serial - e.permuted));
    }
  }
  auto& m = out.per_layer;
  m.set("dag.build_ms", sum.dag * 1e3, "ms");
  m.set("core.growlocal_ms", sum.growlocal * 1e3, "ms");
  m.set("core.validate_ms", sum.validate * 1e3, "ms");
  m.set("core.reorder_ms", sum.reorder * 1e3, "ms");
  m.set("exec.analyze_ms", sum.analyze * 1e3, "ms");
  m.set("exec.plan_build_ms",
        planBuildCost(sum.analyze, sum.dag, sum.growlocal, sum.validate,
                      sum.reorder) * 1e3,
        "ms");
  m.set("dag.transitive_reduction_ms", sum.transitive * 1e3, "ms");
  m.set("core.supersteps", supersteps, "count");
  m.set("core.barrier_reduction", geomean(barrier_reduction), "ratio");
  m.set("core.imbalance", geomean(imbalance), "ratio");
  const double g_solve = geomean(solve);
  const double g_permuted = geomean(permuted);
  m.set("exec.solve_us", g_solve * 1e6, "us");
  m.set("exec.solve_permuted_us", g_permuted * 1e6, "us");
  m.set("exec.permute_us", permuteCost(g_solve, g_permuted) * 1e6, "us");
  m.set("exec.team1_us", geomean(team1) * 1e6, "us");
  m.set("exec.serial_us", geomean(serial) * 1e6, "us");
  m.set("exec.compute_us", geomean(compute) * 1e6, "us");
  m.set("exec.wait_us", geomean(wait) * 1e6, "us");
  m.set("exec.barrier_crossings", crossings, "count");
  m.set("exec.max_wait_us", geomean(max_wait) * 1e6, "us");
  m.set("exec.bytes_per_solve", geomean(bytes), "bytes");
  m.set("exec.flops_per_solve", geomean(flops), "flop");
  m.set("exec.achieved_gbps", geomean(gbps), "GB/s");
  m.set("baselines.hdagg_solve_us", geomean(hdagg_solve) * 1e6, "us");
  m.set("baselines.spmp_solve_us", geomean(spmp_solve) * 1e6, "us");
  m.set("baselines.hdagg_analyze_ms", geomean(hdagg_analyze) * 1e3, "ms");
  m.set("baselines.spmp_analyze_ms", geomean(spmp_analyze) * 1e3, "ms");
  m.set("paper.speedup_vs_serial", geomean(vs_serial), "ratio");
  m.set("paper.speedup_vs_hdagg", geomean(vs_hdagg), "ratio");
  m.set("paper.speedup_vs_spmp", geomean(vs_spmp), "ratio");
  m.set("paper.barrier_reduction_vs_hdagg", geomean(bar_vs_hdagg), "ratio");
  // Eq. 7.1 over the matrices where the schedule beats serial; -1 when none.
  m.set("paper.amortization_solves",
        amortization.empty() ? -1.0 : geomean(amortization), "solves");
}

}  // namespace perfbench
