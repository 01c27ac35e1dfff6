// The engine probe of traced runs: an open-loop Poisson stream of
// single-RHS submits through engine::SolverEngine at a reference and a top
// rate, timed from each request's due time.

#include <algorithm>
#include <future>
#include <numeric>
#include <random>
#include <thread>

#include <sys/prctl.h>

#include "engine/solver_engine.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using sts::engine::EngineError;
using sts::engine::EngineErrorCode;
using sts::engine::SolverEngine;
using sts::engine::SolverId;
using sts::engine::SolveResponse;
using sts::obs::nowNanos;

/// Offered rates (requests/s). The reference rate is about a third of the
/// engine's capacity on the reference host, the top rate about twice it.
constexpr double kReferenceRate = 1200;
constexpr double kTopRate = 7200;
/// Step lengths. The top step is short: past capacity its backlog (and
/// memory) grows with time.
constexpr double kReferenceStepS = 1.5;
constexpr double kTopStepS = 0.15;
/// serve.goodput_rps counts completions within this due-time latency.
constexpr double kLatencyLimitS = 0.020;
/// Prepared-ahead request inputs (built outside the send path).
constexpr std::size_t kPrepared = 32;
/// Futures polled per generator loop iteration, and the longest the
/// generator blocks between polls (the resolution of completion times of
/// requests that finish out of order).
constexpr std::size_t kPollWindow = 64;
constexpr std::uint64_t kPollNs = 200'000;
/// Completed solutions kept per step for verification: a seeded reservoir
/// sample, so memory stays bounded however long the step runs.
constexpr std::size_t kVerifyPerStep = 64;

/// Aggregate engine counters over the registered solvers.
struct EngineTotals {
  double rhs = 0, batches = 0;
  double busy = 0, pack = 0, unpack = 0, team_sum = 0;
  double rejected = 0, expired = 0;
  double compute = 0, wait = 0;
};

EngineTotals totals(const SolverEngine& engine,
                    const std::vector<SolverId>& ids) {
  EngineTotals t;
  for (const SolverId id : ids) {
    const auto s = engine.stats(id);
    t.rhs += static_cast<double>(s.rhs_solved);
    t.batches += static_cast<double>(s.batches);
    t.busy += s.busy_seconds;
    t.pack += s.pack_seconds;
    t.unpack += s.unpack_seconds;
    t.team_sum += s.mean_team_size * static_cast<double>(s.batches);
    t.rejected += static_cast<double>(s.rejected_requests);
    t.expired += static_cast<double>(s.expired_requests);
    for (const auto& row : engine.traceSummary(id)) {
      t.compute += row.compute_seconds;
      t.wait += row.wait_seconds;
    }
  }
  return t;
}

struct StepResult {
  double seconds = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;
  std::uint64_t verify_failed = 0;
  std::uint64_t within_limit = 0;
  std::vector<double> latency_s;
  std::vector<double> late_s;  ///< generator lateness per send
  EngineTotals delta;

  std::uint64_t failed() const {
    return rejected + expired + errors + verify_failed;
  }
};

struct Pending {
  std::future<SolveResponse> future;
  std::uint64_t due_ns = 0;
  int problem = 0;
  int rhs = 0;
  bool done = false;
};

struct Prepared {
  int problem = 0;
  int rhs = 0;
  std::vector<double> b;
};

class Generator {
 public:
  Generator(SolverEngine& engine, const std::vector<SolverId>& ids,
            const std::vector<Problem>& problems, std::uint64_t seed)
      : engine_(engine), ids_(ids), problems_(problems), rng_(seed) {
    // Timed waits wake at their deadline, not up to 50 us after it.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  }

  StepResult run(double rate, double seconds, Verifier& verifier) {
    StepResult r;
    r.seconds = seconds;
    const EngineTotals before = totals(engine_, ids_);
    std::exponential_distribution<double> gap(rate);
    const std::uint64_t start = nowNanos();
    const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
    auto next_due =
        start + static_cast<std::uint64_t>(gap(rng_) * 1e9);
    std::vector<Pending> pending;
    std::size_t head = 0;
    std::uint64_t completed = 0;
    std::vector<std::pair<std::pair<int, int>, std::vector<double>>> kept;
    while (next_due < end || head < pending.size()) {
      const std::uint64_t now = nowNanos();
      if (next_due < end && now >= next_due) {
        if (prepared_.empty()) prepareOne();
        Prepared in = std::move(prepared_.front());
        prepared_.erase(prepared_.begin());
        Pending p;
        p.due_ns = next_due;
        p.problem = in.problem;
        p.rhs = in.rhs;
        r.late_s.push_back(dueTimeLatency(next_due, nowNanos()));
        p.future = engine_.submit(ids_[static_cast<std::size_t>(in.problem)],
                                  std::move(in.b), {});
        pending.push_back(std::move(p));
        ++r.sent;
        next_due += static_cast<std::uint64_t>(gap(rng_) * 1e9) + 1;
        continue;
      }
      std::size_t polled = 0;
      for (std::size_t i = head; i < pending.size() && polled < kPollWindow;
           ++i) {
        Pending& p = pending[i];
        if (p.done) continue;
        ++polled;
        if (p.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          continue;
        }
        const std::uint64_t done_ns = nowNanos();
        p.done = true;
        try {
          SolveResponse response = p.future.get();
          const double latency = dueTimeLatency(p.due_ns, done_ns);
          r.latency_s.push_back(latency);
          ++completed;
          if (latency <= kLatencyLimitS) ++r.within_limit;
          // Reservoir sampling (Algorithm R) over this step's completions.
          const std::uint64_t slot = rng_() % completed;
          if (kept.size() < kVerifyPerStep) {
            kept.push_back({{p.problem, p.rhs}, std::move(response.x)});
          } else if (slot < kVerifyPerStep) {
            kept[slot] = {{p.problem, p.rhs}, std::move(response.x)};
          }
        } catch (const EngineError& e) {
          if (e.code() == EngineErrorCode::kRejected) {
            ++r.rejected;
          } else if (e.code() == EngineErrorCode::kExpired) {
            ++r.expired;
          } else {
            ++r.errors;
          }
        } catch (const std::exception&) {
          ++r.errors;
        }
      }
      while (head < pending.size() && pending[head].done) ++head;
      if (next_due < end && prepared_.size() < kPrepared) {
        prepareOne();
        continue;
      }
      // Block (not spin) until the next send is due, the oldest request
      // completes, or the poll interval ends: the generator then costs
      // almost no CPU, and executor team members keep their cores.
      auto wait_ns = kPollNs;
      const std::uint64_t t = nowNanos();
      if (next_due < end) wait_ns = std::min(wait_ns, next_due > t ? next_due - t : 0);
      if (wait_ns == 0) continue;
      if (head < pending.size()) {
        pending[head].future.wait_for(std::chrono::nanoseconds(wait_ns));
      } else {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
      }
    }
    // Verification runs after the step, off the timed path.
    for (const auto& [in, x] : kept) {
      const Problem& p = problems_[static_cast<std::size_t>(in.first)];
      if (!verifier.check(p, p.rhs[static_cast<std::size_t>(in.second)], x)) {
        ++r.verify_failed;
      }
    }
    engine_.drain();  // batch bookkeeping lands before a request retires
    const EngineTotals after = totals(engine_, ids_);
    r.delta = EngineTotals{
        after.rhs - before.rhs, after.batches - before.batches,
        after.busy - before.busy, after.pack - before.pack,
        after.unpack - before.unpack, after.team_sum - before.team_sum,
        after.rejected - before.rejected, after.expired - before.expired,
        after.compute - before.compute, after.wait - before.wait};
    return r;
  }

 private:
  void prepareOne() {
    Prepared in;
    in.problem = static_cast<int>(rng_() % problems_.size());
    const Problem& p = problems_[static_cast<std::size_t>(in.problem)];
    in.rhs = static_cast<int>(rng_() % p.rhs.size());
    in.b = p.rhs[static_cast<std::size_t>(in.rhs)];
    prepared_.push_back(std::move(in));
  }

  SolverEngine& engine_;
  const std::vector<SolverId>& ids_;
  const std::vector<Problem>& problems_;
  std::mt19937_64 rng_;
  std::vector<Prepared> prepared_;
};

/// exec.tiled_batch_us_per_rhs: solveMultiRhsTiled at max_batch columns
/// on the served solvers at the engine's team, timed directly.
double tiledBatchUsPerRhs(const std::vector<SolverPtr>& solvers,
                          const std::vector<Problem>& problems, int team,
                          Verifier& verifier) {
  const sts::index_t nrhs = sts::engine::EngineOptions{}.max_batch;
  std::vector<double> per_matrix;
  for (std::size_t m = 0; m < problems.size(); ++m) {
    const Problem& p = problems[m];
    const auto& solver = *solvers[m];
    const auto n = static_cast<std::size_t>(p.lower.rows());
    const auto r = static_cast<std::size_t>(nrhs);
    std::vector<double> b(n * r);
    std::vector<double> x(n * r);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < r; ++c) {
        b[i * r + c] = p.rhs[c % p.rhs.size()][i];
      }
    }
    auto ctx = solver.createContext();
    std::vector<double> samples;
    for (int rep = 0; rep < 60; ++rep) {
      const auto t0 = Clock::now();
      solver.solveMultiRhsTiled(b, x, nrhs, *ctx, team,
                                solver.options().fold_policy,
                                solver.options().storage);
      if (rep >= 10) samples.push_back(secondsSince(t0));
    }
    std::vector<double> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = x[i * r];
    verifier.check(p, p.rhs[0], col);  // a miss makes the run incorrect
    per_matrix.push_back(median(samples).value / static_cast<double>(nrhs));
  }
  return geomean(per_matrix) * 1e6;
}

/// Per-layer engine metrics of one step, suffixed ".ref" or ".top".
void addEngineStep(const StepResult& r, const std::string& suffix,
                   int num_workers, Outcome& out) {
  const EngineTotals& d = r.delta;
  const double rhs = std::max(d.rhs, 1.0);
  const double batches = std::max(d.batches, 1.0);
  const double mean_latency =
      std::accumulate(r.latency_s.begin(), r.latency_s.end(), 0.0) /
      std::max<double>(1.0, static_cast<double>(r.latency_s.size()));
  auto& m = out.per_layer;
  m.set("engine.batch_rhs_mean" + suffix, d.rhs / batches, "rhs");
  m.set("engine.pack_us_per_rhs" + suffix, d.pack / rhs * 1e6, "us");
  m.set("engine.unpack_us_per_rhs" + suffix, d.unpack / rhs * 1e6, "us");
  m.set("engine.solve_us_per_rhs" + suffix,
        engineSolvePerRhs(d.busy, d.pack, d.unpack, rhs) * 1e6, "us");
  m.set("engine.exec_wait_share" + suffix,
        d.compute + d.wait > 0 ? d.wait / (d.compute + d.wait) : 0.0, "ratio");
  m.set("engine.busy_share" + suffix,
        d.busy / (r.seconds * static_cast<double>(num_workers)), "ratio");
  m.set("engine.queue_wait_ms" + suffix, (mean_latency - d.busy / batches) * 1e3,
        "ms");
  m.set("engine.team_mean" + suffix, d.team_sum / batches, "threads");
}

}  // namespace

void addEngineProbe(const RunConfig& cfg, Outcome& out, Verifier& verifier) {
  BenchSpan span("engine_probe");
  const std::vector<Problem> problems = serveMatrixSet(cfg.seed);
  const ServeConfig sc = serveConfig(cfg.width);
  std::vector<SolverPtr> solvers;
  analyzeAll(problems, cfg.width, solvers);
  sts::engine::EngineOptions options;
  options.num_workers = sc.num_workers;
  options.team_size = sc.team_size;
  options.max_queue_depth = sc.max_queue_depth;
  SolverEngine engine(options);
  std::vector<SolverId> ids;
  for (const auto& solver : solvers) ids.push_back(engine.registerSolver(solver));

  Generator gen(engine, ids, problems, cfg.seed);
  std::vector<StepResult> steps;
  for (const auto& [rate, seconds] :
       {std::pair{kReferenceRate, kReferenceStepS}, {kTopRate, kTopStepS}}) {
    BenchSpan step_span("serve_step");
    steps.push_back(gen.run(rate, seconds, verifier));
  }

  double rejected = 0;
  double expired = 0;
  double late = 0;
  for (const auto& r : steps) {
    out.attempted += r.sent;
    out.failed += r.failed();
    rejected += static_cast<double>(r.rejected);
    expired += static_cast<double>(r.expired);
    if (!r.late_s.empty()) late = std::max(late, supportedTail(r.late_s).value);
  }
  addEngineStep(steps.front(), ".ref", sc.num_workers, out);
  addEngineStep(steps.back(), ".top", sc.num_workers, out);
  out.per_layer.set("engine.rejected", rejected, "count");
  out.per_layer.set("engine.expired", expired, "count");
  out.per_layer.set("serve.generator_late_ms", late * 1e3, "ms");
  out.per_layer.set("serve.goodput_rps",
                    static_cast<double>(steps.back().within_limit) /
                        steps.back().seconds,
                    "1/s");
  out.per_layer.set("exec.tiled_batch_us_per_rhs",
                    tiledBatchUsPerRhs(solvers, problems, sc.team_size, verifier),
                    "us");
}

}  // namespace perfbench
