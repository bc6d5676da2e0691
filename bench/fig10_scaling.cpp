// Reproduces Fig. 10: strong scaling of the next-generation LTS scheme.
// The paper scales a single simulation from 24 to 1,536 Frontera nodes with
// > 80% parallel efficiency (> 95% in the headline range) and reports a
// 10.37x per-simulation speedup when combining LTS and 16-fold fusion
// against single-simulation GTS on the same node count. Here ranks are
// std::threads of the distributed driver (message-passing, face-local
// compression on) and each rank's StepExecutor additionally runs
// `threads` OpenMP threads — the hybrid ranks x threads layout of the
// scenario CLI's `--ranks`/`--threads`. Emits BENCH_fig10_scaling.json.
#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "lts/clustering.hpp"
#include "parallel/dist_sim.hpp"
#include "partition/dual_graph.hpp"
#include "partition/partitioner.hpp"
#include "solver/simulation.hpp"
#include "solver/threading.hpp"

using namespace nglts;

namespace {

void pulse(const std::array<double, 3>& x, int_t, double* q9) {
  for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
  const double r2 = (x[0] - 12000.0) * (x[0] - 12000.0) +
                    (x[1] - 12000.0) * (x[1] - 12000.0) + (x[2] + 2500.0) * (x[2] + 2500.0);
  q9[kVelW] = std::exp(-r2 / 4e6);
}

} // namespace

int main() {
  const double scale = bench::benchScale();
  bench::LaHabraScenario sc(0.33 * scale);
  const auto geo = mesh::computeGeometry(sc.mesh);
  const auto dt = lts::cflTimeSteps(geo, sc.materials, 4);
  const auto sweep = lts::optimizeLambda(sc.mesh, dt, 4);
  const auto clustering = lts::buildClustering(sc.mesh, dt, 4, sweep.bestLambda);
  const auto graph = partition::buildDualGraph(sc.mesh, clustering);
  std::printf("strong scaling mesh: %lld elements, lambda %.2f, theoretical LTS %.2fx\n\n",
              static_cast<long long>(sc.mesh.numElements()), sweep.bestLambda,
              clustering.theoreticalSpeedup);

  bench::JsonReport json;
  json.set("bench", "fig10_scaling");
  json.set("kernel_backend", bench::benchKernelLabel());
  json.set("scale", scale);
  json.set("hardware_threads", static_cast<double>(solver::hardwareThreads()));

  // One measured (ranks, threads-per-rank) configuration of the hybrid run.
  // The transport is an A/B knob: every transport is bitwise-identical, only
  // the wall clock moves.
  auto runHybrid = [&](int_t ranks, int_t threads,
                       parallel::Transport transport = parallel::Transport::kThread) {
    const auto parts = partition::partitionGraph(graph, sc.mesh, ranks);
    parallel::DistConfig cfg;
    cfg.sim.order = 4;
    cfg.sim.scheme = solver::TimeScheme::kLtsNextGen;
    cfg.sim.numClusters = 4;
    cfg.sim.lambda = sweep.bestLambda;
    cfg.sim.kernelBackend = bench::benchKernelBackend();
    cfg.sim.numThreads = threads;
    cfg.compressFaces = true;
    cfg.transport = ranks > 1 ? transport : parallel::Transport::kSeq;
    parallel::DistributedSimulation<float, 1> sim(sc.mesh, sc.materials, parts.part, cfg);
    sim.setInitialCondition(pulse);
    sim.run(sim.cycleDt()); // warm-up
    return sim.run(4.0 * sim.cycleDt());
  };

  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int_t> rankCounts = {1, 2, 4};
  if (hw >= 8) rankCounts.push_back(8);
  if (hw >= 16) rankCounts.push_back(16);

  // Rank scaling at one executor thread per rank: pure message-passing
  // strong scaling, the Fig. 10 axis.
  Table table({"ranks", "wall s", "updates/s", "speedup", "parallel efficiency", "MB sent"});
  double base = 0.0;
  for (int_t ranks : rankCounts) {
    const auto st = runHybrid(ranks, 1);
    if (base == 0.0) base = st.seconds;
    const double speedup = base / st.seconds;
    table.addRow({std::to_string(ranks), formatNumber(st.seconds, "%.2f"),
                  formatNumber(static_cast<double>(st.elementUpdates) / st.seconds, "%.3g"),
                  formatNumber(speedup, "%.2f"), formatNumber(speedup / ranks, "%.2f"),
                  formatNumber(st.commBytes / 1e6, "%.2f")});
    json.beginRow();
    json.rowSet("mode", "rank_scaling");
    json.rowSet("ranks", static_cast<double>(ranks));
    json.rowSet("threads_per_rank", 1.0);
    json.rowSet("transport", ranks > 1 ? "thread" : "seq");
    json.rowSet("seconds", st.seconds);
    json.rowSet("updates_per_sec", static_cast<double>(st.elementUpdates) / st.seconds);
    json.rowSet("speedup", speedup);
    json.rowSet("comm_mb", st.commBytes / 1e6);
  }
  std::printf("%s\n", table.str().c_str());
  table.writeCsv("fig10_scaling.csv");

  // Transport A/B at the largest in-process rank count: the seq vs the
  // thread transport (the MPI transport runs under mpirun in CI — it cannot
  // be launched from inside this single-process bench).
  const int_t abRanks = rankCounts.back();
  Table ab({"transport", "wall s", "updates/s", "speedup vs seq"});
  double abBase = 0.0;
  for (const auto transport : {parallel::Transport::kSeq, parallel::Transport::kThread}) {
    const auto st = runHybrid(abRanks, 1, transport);
    if (abBase == 0.0) abBase = st.seconds;
    ab.addRow({parallel::transportName(transport), formatNumber(st.seconds, "%.2f"),
               formatNumber(static_cast<double>(st.elementUpdates) / st.seconds, "%.3g"),
               formatNumber(abBase / st.seconds, "%.2f")});
    json.beginRow();
    json.rowSet("mode", "transport_ab");
    json.rowSet("ranks", static_cast<double>(abRanks));
    json.rowSet("threads_per_rank", 1.0);
    json.rowSet("transport", parallel::transportName(transport));
    json.rowSet("seconds", st.seconds);
    json.rowSet("updates_per_sec", static_cast<double>(st.elementUpdates) / st.seconds);
    json.rowSet("speedup_vs_seq", abBase / st.seconds);
  }
  std::printf("transport A/B at %lld ranks (bitwise-identical results):\n%s\n",
              static_cast<long long>(abRanks), ab.str().c_str());

  // Thread sweep (1 rank) and hybrid ranks x threads combinations: the
  // threaded StepExecutor inside the rank threads. Same physics, bitwise-
  // identical results — only the wall clock moves.
  Table hybrid({"ranks x threads", "wall s", "updates/s", "speedup vs 1x1"});
  double base11 = 0.0;
  const std::pair<int_t, int_t> combos[] = {{1, 1}, {1, 2}, {1, 4}, {1, 8}, {2, 2}, {4, 2}};
  for (const auto& [ranks, threads] : combos) {
    const auto st = runHybrid(ranks, threads);
    if (base11 == 0.0) base11 = st.seconds;
    hybrid.addRow({std::to_string(ranks) + " x " + std::to_string(threads),
                   formatNumber(st.seconds, "%.2f"),
                   formatNumber(static_cast<double>(st.elementUpdates) / st.seconds, "%.3g"),
                   formatNumber(base11 / st.seconds, "%.2f")});
    json.beginRow();
    json.rowSet("mode", "hybrid_thread_sweep");
    json.rowSet("ranks", static_cast<double>(ranks));
    json.rowSet("threads_per_rank", static_cast<double>(threads));
    json.rowSet("seconds", st.seconds);
    json.rowSet("updates_per_sec", static_cast<double>(st.elementUpdates) / st.seconds);
    json.rowSet("speedup_vs_1x1", base11 / st.seconds);
  }
  std::printf("%s\n", hybrid.str().c_str());
  json.write("BENCH_fig10_scaling.json");

  // Combined LTS + fused speedup over single-simulation GTS (per simulation),
  // the paper's 10.37x headline (shared-memory solver, all cores).
  auto timePerSim = [&](solver::TimeScheme scheme, auto wTag, bool sparse) {
    constexpr int W = decltype(wTag)::value;
    bench::LaHabraScenario s2(0.28 * scale);
    solver::SimConfig cfg;
    cfg.order = 4;
    cfg.scheme = scheme;
    cfg.numClusters = 4;
    cfg.autoLambda = scheme != solver::TimeScheme::kGts;
    cfg.sparseKernels = sparse;
    cfg.kernelBackend = bench::benchKernelBackend();
    cfg.numThreads = solver::hardwareThreads();
    solver::Simulation<float, W> sim(std::move(s2.mesh), std::move(s2.materials), cfg);
    sim.setInitialCondition(pulse);
    sim.run(sim.cycleDt());
    const auto st = sim.run(8.0 * sim.cycleDt());
    return st.seconds / st.simulatedTime / W;
  };
  const double gts1 = timePerSim(solver::TimeScheme::kGts, std::integral_constant<int, 1>{}, false);
  const double lts16 =
      timePerSim(solver::TimeScheme::kLtsNextGen, std::integral_constant<int, 16>{}, true);
  std::printf("combined LTS + 16-fused per-simulation speedup over GTS single: %.2fx "
              "(paper: 10.37x)\n",
              gts1 / lts16);
  return 0;
}
