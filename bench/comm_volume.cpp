// Reproduces the communication-volume analysis of Sec. V / V-C:
//  * the derivative scheme of [15] cannot truncate the elastic derivatives
//    in the anelastic case — 5 * 9 * 35 = 1,575 values per element at O = 5;
//  * the next-generation scheme ships time-integrated buffers (9 x B), and
//    across partition boundaries the face-local 9 x F representation;
//  * the compression wins whenever an element's buffers feed at most two
//    remote faces (F/B = 15/35 at O = 5).
// We print the per-face payload table and measured per-cycle byte volumes on
// a partitioned LOH.3-like mesh for all three schemes — both the analytic
// accounting (DistributedSimulation::cycleCommBytes, computed on a 1-rank
// `Simulation`) and the bytes actually shipped by a multi-rank run.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "parallel/dist_sim.hpp"
#include "solver/simulation.hpp"

using namespace nglts;

int main() {
  // Payload table (values per element/face, fp32 words).
  Table payload({"order", "deriv stack (anelastic)", "deriv stack (elastic, trimmed)",
                 "buffer 9xB", "face-local 9xF", "F/B"});
  for (int_t o : {3, 4, 5, 6}) {
    const int_t b = numBasis3d(o), f = numBasis2d(o);
    int_t trimmed = 0;
    for (int_t d = 0; d < o; ++d) trimmed += 9 * numBasis3d(o - d);
    payload.addRow({std::to_string(o), std::to_string(o * 9 * b), std::to_string(trimmed),
                    std::to_string(9 * b), std::to_string(9 * f),
                    formatNumber(static_cast<double>(f) / b, "%.3f")});
  }
  std::printf("%s\n", payload.str().c_str());
  std::printf("paper: 5*9*35 = 1,575 values for the anelastic derivative scheme at O=5\n\n");
  payload.writeCsv("comm_payloads.csv");

  // Analytic per-cycle volumes for a two-way split of the LOH.3-like mesh.
  bench::Loh3Scenario sc(bench::benchScale());
  std::vector<int_t> part(sc.mesh.numElements());
  for (idx_t e = 0; e < sc.mesh.numElements(); ++e)
    part[e] = sc.mesh.centroid(e)[0] > 4000.0;

  Table vol({"scheme", "payload mode", "bytes/cycle", "vs best"});
  std::vector<std::pair<std::string, std::uint64_t>> rows;
  for (int_t mode = 0; mode < 3; ++mode) {
    solver::SimConfig cfg;
    cfg.order = 5;
    cfg.mechanisms = 3;
    cfg.scheme = mode == 2 ? solver::TimeScheme::kLtsBaseline : solver::TimeScheme::kLtsNextGen;
    cfg.numClusters = 3;
    bench::Loh3Scenario s2(bench::benchScale());
    solver::Simulation<float, 1> sim(std::move(s2.mesh), std::move(s2.materials), cfg);
    const bool faceLocal = mode == 0;
    const char* name = mode == 0   ? "next-gen (this paper)"
                       : mode == 1 ? "next-gen, no compression"
                                   : "baseline [15] derivatives";
    rows.emplace_back(name + std::string(mode == 0 ? " / 9xF face-local" : " / full"),
                      sim.cycleCommBytes(part, faceLocal));
  }
  const double best = static_cast<double>(rows[0].second);
  for (const auto& [name, bytes] : rows)
    vol.addRow({name.substr(0, name.find(" / ")), name.substr(name.find(" / ") + 3),
                std::to_string(bytes), formatNumber(bytes / best, "%.2f")});
  std::printf("%s\n", vol.str().c_str());
  vol.writeCsv("comm_volume.csv");

  // Cross-check the analytic accounting against the bytes actually shipped
  // by the distributed engine (its ghost-slot exchange):
  // raw 9 x B vs face-local 9 x F payloads, same partition, same run.
  std::uint64_t measured[2] = {0, 0}; // [raw, compressed] bytes per cycle
  for (int mode = 0; mode < 2; ++mode) {
    const bool compress = mode == 1;
    parallel::DistConfig dcfg;
    dcfg.sim.order = 5;
    dcfg.sim.mechanisms = 3;
    dcfg.sim.scheme = solver::TimeScheme::kLtsNextGen;
    dcfg.sim.numClusters = 3;
    dcfg.compressFaces = compress;
    parallel::DistributedSimulation<float, 1> dist(sc.mesh, sc.materials, part, dcfg);
    dist.setInitialCondition([](const std::array<double, 3>&, int_t, double* q9) {
      for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
    });
    const auto st = dist.run(2.0 * dist.cycleDt());
    measured[mode] = st.commBytes / st.cycles;
    std::printf("distributed driver measured (%s): %.3g bytes/cycle over %llu messages/cycle\n",
                compress ? "9xF face-local" : "raw 9xB",
                static_cast<double>(st.commBytes) / st.cycles,
                static_cast<unsigned long long>(st.messages / st.cycles));
  }
  std::printf("measured compression ratio %.3f (analytic F/B at O=5: %.3f)\n",
              static_cast<double>(measured[1]) / measured[0],
              static_cast<double>(numBasis2d(5)) / numBasis3d(5));
  return 0;
}
