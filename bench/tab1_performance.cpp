// Reproduces Tab. I: single-socket time-to-solution of the LOH.3-like
// setting for GTS, next-generation LTS (lambda = 1.0 and the swept lambda)
// and the buffer+derivative baseline scheme of [15] ("SeisSol" row), each as
// a single forward simulation (dense block-trimmed kernels) and as sixteen
// fused simulations (fully sparse kernels). Reported: element updates per
// second, GFLOPS-equivalents (useful ops), and speedups over single-run GTS
// — per fused lane in the fused columns, matching the paper's
// per-simulation accounting. Every row runs on all hardware threads.
#include <cstdio>

#include "bench_common.hpp"
#include "linalg/kernel_backend.hpp"
#include "solver/simulation.hpp"
#include "solver/threading.hpp"

using namespace nglts;

namespace {

struct RowResult {
  double updatesPerSec = 0.0; // per lane
  double gflops = 0.0;
  double wallPerSimSecond = 0.0; // time to solution, per fused lane
};

template <int W>
RowResult runCase(solver::TimeScheme scheme, double lambda, bool sparse, double scale,
                  double tEnd) {
  bench::Loh3Scenario sc(scale);
  solver::SimConfig cfg;
  cfg.order = 4;
  cfg.mechanisms = 3;
  cfg.attenuationFreq = 1.0;
  cfg.scheme = scheme;
  cfg.numClusters = 3;
  cfg.lambda = lambda;
  cfg.autoLambda = lambda < 0; // negative lambda encodes "use the Sec. V-A sweep"
  if (cfg.autoLambda) cfg.lambda = 1.0;
  cfg.sparseKernels = sparse;
  cfg.numThreads = solver::hardwareThreads();
  solver::Simulation<float, W> sim(std::move(sc.mesh), std::move(sc.materials), cfg);
  sim.setInitialCondition([](const std::array<double, 3>& x, int_t, double* q9) {
    for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
    const double r2 = (x[0] - 4000.0) * (x[0] - 4000.0) + (x[1] - 4000.0) * (x[1] - 4000.0) +
                      (x[2] + 2000.0) * (x[2] + 2000.0);
    q9[kVelW] = std::exp(-r2 / 640000.0);
  });
  sim.run(sim.cycleDt()); // warm-up cycle
  const auto st = sim.run(tEnd);
  RowResult r;
  // Raw throughput and GFLOPS, plus the time-to-solution metric: wall
  // seconds per simulated second and fused lane, which also counts the
  // scheme's algorithmic efficiency (fewer updates per simulated second).
  r.updatesPerSec = st.elementUpdatesPerSecond();
  r.gflops = st.gflops();
  r.wallPerSimSecond = st.seconds / st.simulatedTime / W;
  return r;
}

} // namespace

int main() {
  const double scale = bench::benchScale();
  const double tEnd = 0.05 * scale;

  struct Row {
    const char* name;
    solver::TimeScheme scheme;
    double lambda;
  };
  const Row rows[] = {
      {"EDGE GTS", solver::TimeScheme::kGts, 1.0},
      {"EDGE LTS (1.0)", solver::TimeScheme::kLtsNextGen, 1.0},
      {"EDGE LTS (swept lambda)", solver::TimeScheme::kLtsNextGen, -1.0},
      {"baseline [15] LTS (1.0)", solver::TimeScheme::kLtsBaseline, 1.0},
  };

  std::printf("%-24s %13s %14s %16s %21s\n", "configuration", "1-sim GFLOPS", "1-sim speedup",
              "16-fused GFLOPS", "16-fused speedup/sim");
  bench::JsonReport json;
  json.set("bench", "tab1_performance");
  json.set("kernel_backend",
           linalg::resolvedKernelBackendLabel(linalg::KernelBackend::kAuto));
  // Tab. I is the paper's *single-precision* production table; the runs
  // here are Simulation<float, W> by construction.
  json.set("precision", "f32");
  json.set("scale", scale);
  json.set("t_end", tEnd);
  double gtsCost1 = 0.0;
  std::vector<std::array<double, 2>> costs;
  std::vector<std::array<double, 2>> gflops;
  for (const Row& r : rows) {
    const auto p1 = runCase<1>(r.scheme, r.lambda, false, scale, tEnd);
    const auto p16 = runCase<16>(r.scheme, r.lambda, true, scale, tEnd);
    const double c1 = p1.wallPerSimSecond;
    const double c16 = p16.wallPerSimSecond;
    if (gtsCost1 == 0.0) gtsCost1 = c1;
    costs.push_back({c1, c16});
    gflops.push_back({p1.gflops, p16.gflops});
    std::printf("%-24s %13.1f %14.2f %16.1f %21.2f\n", r.name, p1.gflops, gtsCost1 / c1,
                p16.gflops, gtsCost1 / c16);
    json.beginRow();
    json.rowSet("configuration", r.name);
    json.rowSet("gflops_1sim", p1.gflops);
    json.rowSet("updates_per_sec_1sim", p1.updatesPerSec);
    json.rowSet("speedup_1sim", gtsCost1 / c1);
    json.rowSet("gflops_16fused", p16.gflops);
    json.rowSet("updates_per_sec_16fused", p16.updatesPerSec);
    json.rowSet("speedup_per_sim_16fused", gtsCost1 / c16);
  }
  std::printf("\npaper Tab. I speedups over single-sim GTS:\n");
  std::printf("  EDGE: GTS 1.00/1.80, LTS(1.0) 2.14/3.91, LTS(0.8) 2.51/4.51\n");
  std::printf("  SeisSol(GTS/LTS single): 0.92 / 1.70\n");
  std::printf("measured next-gen over baseline (single, lambda 1.0): %.2fx (paper: >1.26x)\n",
              costs[3][0] / costs[1][0]);
  json.write("BENCH_tab1.json");
  return 0;
}
