// Reproduces Fig. 7: LTS-weighted partitionings of the La Habra-like mesh at
// a small and a large partition count. Balancing the *weighted* load makes
// partitions dominated by large-time-step clusters hold more elements; the
// paper reports element-count spreads of 2.2x at 48 parts and 4.12x at 2048
// parts (here scaled to the mesh size).
//
// The bench also records the --partition weighted-vs-unweighted A/B: both
// assignments are scored under the *weighted* (LTS work) imbalance metric —
// the quantity the weighted partitioner minimizes and the unweighted one is
// blind to — and a small hybrid ranks x threads run measures the wall-clock
// effect of each assignment.
// Everything lands in BENCH_fig7.json (imbalance rows + runtime rows).
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
  const bench::LaHabraScenario sc(scale);
  const auto geo = mesh::computeGeometry(sc.mesh);
  const auto dt = lts::cflTimeSteps(geo, sc.materials, 5);
  const auto sweep = lts::optimizeLambda(sc.mesh, dt, 5);
  const auto clustering = lts::buildClustering(sc.mesh, dt, 5, sweep.bestLambda);
  const auto gw =
      partition::buildPartitionGraph(sc.mesh, clustering, partition::PartitionWeighting::kWeighted);
  const auto gu = partition::buildPartitionGraph(sc.mesh, clustering,
                                                 partition::PartitionWeighting::kUnweighted);
  std::printf("La Habra-like mesh: %lld elements, lambda %.2f\n\n",
              static_cast<long long>(sc.mesh.numElements()), sweep.bestLambda);

  bench::JsonReport json;
  json.set("bench", "fig7_partitions");
  json.set("kernel_backend", bench::benchKernelLabel());
  json.set("scale", scale);
  json.set("elements", static_cast<double>(sc.mesh.numElements()));
  json.set("lambda", sweep.bestLambda);

  for (int_t parts : {8, 48}) {
    if (parts * 8 > sc.mesh.numElements()) continue;
    const auto res = partition::partitionGraph(gw, sc.mesh, parts);
    const auto resU = partition::partitionGraph(gu, sc.mesh, parts);
    const auto hist = partition::clusterHistogram(res, clustering.cluster, 5);
    // Both assignments scored under the weighted (LTS work) metric: the
    // unweighted partitioner balances element counts, so its work imbalance
    // is whatever the cluster layout happens to produce.
    const double iw = partition::measureImbalance(gw, res.part, parts);
    const double iu = partition::measureImbalance(gw, resU.part, parts);
    std::printf("=== %d partitions ===\n", parts);
    std::printf("weighted load imbalance: %.3f (unweighted partition: %.3f, %+.1f%%)\n",
                iw, iu, 100.0 * (iw - iu) / iu);
    std::printf("element spread max/min: %.2fx (paper: 2.2x @48, 4.12x @2048)\n",
                res.elementSpread());
    Table table({"partition", "elements", "C1", "C2", "C3", "C4", "C5"});
    // Order partitions by total element count, as in the figure.
    std::vector<int_t> order(parts);
    for (int_t p = 0; p < parts; ++p) order[p] = p;
    std::sort(order.begin(), order.end(),
              [&](int_t a, int_t b) { return res.elements[a] > res.elements[b]; });
    for (int_t p : order)
      table.addRow({std::to_string(p), std::to_string(res.elements[p]),
                    std::to_string(hist[p][0]), std::to_string(hist[p][1]),
                    std::to_string(hist[p][2]), std::to_string(hist[p][3]),
                    std::to_string(hist[p][4])});
    std::printf("%s\n", table.str().c_str());
    table.writeCsv("fig7_partitions_" + std::to_string(parts) + ".csv");

    for (const bool weighted : {false, true}) {
      const auto& r = weighted ? res : resU;
      json.beginRow();
      json.rowSet("mode", "imbalance");
      json.rowSet("parts", static_cast<double>(parts));
      json.rowSet("weighting", weighted ? "weighted" : "unweighted");
      json.rowSet("weighted_imbalance", weighted ? iw : iu);
      json.rowSet("element_imbalance", partition::measureImbalance(gu, r.part, parts));
      json.rowSet("element_spread", r.elementSpread());
      json.rowSet("edge_cut", r.edgeCut);
    }
  }

  // Runtime A/B: the same hybrid ranks x threads run under each assignment
  // (both are bitwise-identical — only the wall clock moves).
  const int_t ranks = std::thread::hardware_concurrency() >= 4 ? 2 : 1;
  const int_t threads = 2;
  std::printf("=== runtime A/B (%lld ranks x %lld threads) ===\n",
              static_cast<long long>(ranks), static_cast<long long>(threads));
  Table rt({"partition", "wall s", "updates/s"});
  for (const bool weighted : {false, true}) {
    const auto& graph = weighted ? gw : gu;
    const auto parts = partition::partitionGraph(graph, sc.mesh, ranks);
    parallel::DistConfig cfg;
    cfg.sim.order = 4;
    cfg.sim.scheme = solver::TimeScheme::kLtsNextGen;
    cfg.sim.numClusters = 5;
    cfg.sim.lambda = sweep.bestLambda;
    cfg.sim.kernelBackend = bench::benchKernelBackend();
    cfg.sim.numThreads = threads;
    cfg.compressFaces = true;
    cfg.transport = ranks > 1 ? parallel::Transport::kThread : parallel::Transport::kSeq;
    parallel::DistributedSimulation<float, 1> sim(sc.mesh, sc.materials, parts.part, cfg);
    sim.setInitialCondition(pulse);
    sim.run(sim.cycleDt()); // warm-up
    const auto st = sim.run(4.0 * sim.cycleDt());
    const double ups = static_cast<double>(st.elementUpdates) / st.seconds;
    rt.addRow({weighted ? "weighted" : "unweighted", formatNumber(st.seconds, "%.3f"),
               formatNumber(ups, "%.3g")});
    json.beginRow();
    json.rowSet("mode", "runtime");
    json.rowSet("ranks", static_cast<double>(ranks));
    json.rowSet("threads_per_rank", static_cast<double>(threads));
    json.rowSet("weighting", weighted ? "weighted" : "unweighted");
    json.rowSet("weighted_imbalance", partition::measureImbalance(gw, parts.part, ranks));
    json.rowSet("seconds", st.seconds);
    json.rowSet("updates_per_sec", ups);
  }
  std::printf("%s\n", rt.str().c_str());

  json.write("BENCH_fig7.json");
  return 0;
}
