// perfbench: the repository benchmark driver. One named workload per run,
// inputs from --seed, measured for --seconds; --trace 1 adds the layer
// probes and a Perfetto trace. Prints provenance and detail lines, then
// one JSON result object as the last line of standard output.
//
//   perfbench --workload solve_hot --seed 1 --seconds 10 --trace 0
//             [--out-dir .bench_build/results]

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload solve_hot|analyze_churn"
               " --seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.out_dir = ".bench_build/results";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (key == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (key == "--trace") {
      cfg.trace = value == "1";
    } else if (key == "--out-dir") {
      cfg.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(cfg.seconds > 0)) return usage();
  // Every solver is analyzed for, and solve_hot runs at, W - 1 where W is
  // the host's width: at W the solve-latency tail did not repeat within a
  // tenth run to run (README.md, "Width").
  const int host_width =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  cfg.width = std::max(1, host_width - 1);
  std::filesystem::create_directories(cfg.out_dir);

  const auto steal_before = perfbench::stealTicks();
  perfbench::Outcome out;
  try {
    if (cfg.workload == "solve_hot") {
      out = perfbench::runSolveHot(cfg);
    } else if (cfg.workload == "analyze_churn") {
      out = perfbench::runAnalyzeChurn(cfg);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const auto steal_after = perfbench::stealTicks();
  const double ticks = steal_after.second - steal_before.second;
  const double steal_share =
      ticks > 0 ? (steal_after.first - steal_before.first) / ticks : 0.0;
  const double failed_share =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 1.0;
  if (cfg.trace) {
    out.per_layer.set("failed_share", failed_share, "ratio");
  } else {
    out.end_to_end.set("peak_rss_mib", perfbench::peakRssMiB(), "MiB");
  }
  const bool correct =
      out.failed == 0 && out.verifier.failed == 0 && out.attempted > 0;
  const std::string provenance = perfbench::provenanceJson(cfg);
  const std::string metrics =
      cfg.trace ? out.per_layer.json() : out.end_to_end.json();
  const std::string counts = "\"attempted\": " + std::to_string(out.attempted) +
                             ", \"failed\": " + std::to_string(out.failed);

  std::printf("provenance: {%s}\n", provenance.c_str());
  out.detail = "\"failed_share\":" + perfbench::jsonNumber(failed_share) +
               ",\"host_steal_share\":" + perfbench::jsonNumber(steal_share) +
               "," + out.detail;
  std::printf("detail: {%s}\n", out.detail.c_str());
  const std::string result_path = cfg.out_dir + "/" + cfg.workload + "_seed" +
                                  std::to_string(cfg.seed) + "_trace" +
                                  (cfg.trace ? "1" : "0") + ".json";
  std::ofstream(result_path)
      << "{\"provenance\": {" << provenance << "}, \"detail\": {"
      << out.detail << "}, \"correct\": " << (correct ? "true" : "false")
      << ", " << counts << ", \"metrics\": " << metrics << "}\n";
  std::printf("{\"correct\": %s, %s, \"metrics\": %s}\n",
              correct ? "true" : "false", counts.c_str(), metrics.c_str());
  return 0;
}
