#include "solver/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>

#include "solver/setup.hpp"

namespace nglts::solver {

template <typename Real, int W>
FacadeSetup<Real, W>::FacadeSetup(const char* facade, SimConfig& cfg, const mesh::TetMesh& mesh,
                                  const std::vector<physics::Material>& materials) {
  cfg.precision = std::is_same_v<Real, float> ? Precision::kF32 : Precision::kF64;
  validateSimConfig(cfg);
  if (mesh.faces.empty())
    throw std::runtime_error(std::string(facade) + ": mesh connectivity not built");
  if (static_cast<idx_t>(materials.size()) != mesh.numElements())
    throw std::runtime_error(std::string(facade) + ": one material per element required");

  geo = mesh::computeGeometry(mesh);
  const std::vector<double> dtCfl = lts::cflTimeSteps(geo, materials, cfg.order, cfg.cfl);
  clustering = resolveClustering(mesh, dtCfl, cfg);
  schedule = lts::buildSchedule(clustering.numClusters);
  lts::checkSchedule(schedule, clustering.numClusters);

  const std::vector<double> omega = resolveOmega(materials, cfg.mechanisms);
  kernels = std::make_unique<kernels::AderKernels<Real, W>>(
      cfg.order, cfg.mechanisms, cfg.sparseKernels, omega, cfg.kernelBackend);
}

template <typename Real, int W>
std::uint64_t FacadeSetup<Real, W>::cyclesFor(double endTime) const {
  return static_cast<std::uint64_t>(std::ceil(endTime / cycleDt() - 1e-9));
}

template <typename Real, int W>
void FacadeSetup<Real, W>::countCycles(PerfStats& stats, std::uint64_t cycles) const {
  std::uint64_t updatesPerCycle = 0;
  for (int_t l = 0; l < clustering.numClusters; ++l)
    updatesPerCycle += clustering.clusterSize[l] * lts::stepsPerCycle(clustering.numClusters, l);
  stats.cycles = cycles;
  stats.simulatedTime = cycles * cycleDt();
  stats.elementUpdates = cycles * updatesPerCycle;
}

template <typename Real, int W>
Simulation<Real, W>::Simulation(mesh::TetMesh mesh, std::vector<physics::Material> materials,
                                SimConfig config)
    : cfg_(config),
      mesh_(std::move(mesh)),
      materials_(std::move(materials)),
      setup_("Simulation", cfg_, mesh_, materials_) {
  const auto& kernels = *setup_.kernels;
  state_ = std::make_unique<SolverState<Real, W>>(mesh_, materials_, setup_.geo,
                                                  setup_.clustering, kernels, cfg_);
  const double recDt =
      cfg_.receiverSampleDt > 0.0 ? cfg_.receiverSampleDt : setup_.clustering.dtMin;
  hook_ = std::make_unique<SeismoHook<Real, W>>(mesh_, setup_.geo, materials_, kernels, *state_,
                                                recDt);
  executor_ = std::make_unique<StepExecutor<Real, W>>(cfg_, kernels, *state_, setup_.clustering,
                                                      setup_.schedule, hook_.get());
}

template <typename Real, int W>
void Simulation<Real, W>::setInitialCondition(const InitFn& f) {
  projectInitialCondition(*setup_.kernels, mesh_, setup_.geo, f, *state_, mesh_.numElements());
}

template <typename Real, int W>
void Simulation<Real, W>::addPointSource(const seismo::PointSource& src,
                                         std::vector<double> laneScale) {
  const idx_t el = mesh::locatePoint(mesh_, setup_.geo, src.position);
  if (el < 0) throw std::runtime_error("addPointSource: source outside the mesh");
  hook_->addPointSource(el, src, std::move(laneScale));
}

template <typename Real, int W>
idx_t Simulation<Real, W>::addReceiver(const std::array<double, 3>& position) {
  const idx_t el = mesh::locatePoint(mesh_, setup_.geo, position);
  if (el < 0) return -1;
  return hook_->addReceiver(el, position);
}

template <typename Real, int W>
PerfStats Simulation<Real, W>::run(double endTime) {
  return runCycles(cyclesFor(endTime));
}

template <typename Real, int W>
PerfStats Simulation<Real, W>::runCycles(std::uint64_t cycles) {
  PerfStats stats;
  executor_->drainFlops(); // reset counters for this run
  Timer timer;
  for (std::uint64_t c = 0; c < cycles; ++c) executor_->runCycle();
  stats.seconds = timer.seconds();
  setup_.countCycles(stats, cycles);
  stats.flops = executor_->drainFlops();
  return stats;
}

template <typename Real, int W>
std::array<double, kElasticVars> Simulation<Real, W>::sample(idx_t element,
                                                             const std::array<double, 3>& xi,
                                                             int_t lane) const {
  const auto phi = setup_.kernels->globalMatrices().tet->evalAll(xi);
  const int_t nb = setup_.kernels->numBasis();
  const Real* q = dofs(element);
  std::array<double, kElasticVars> out{};
  for (int_t v = 0; v < kElasticVars; ++v)
    for (int_t b = 0; b < nb; ++b)
      out[v] += static_cast<double>(q[(static_cast<std::size_t>(v) * nb + b) * W + lane]) * phi[b];
  return out;
}

template <typename Real, int W>
std::uint64_t Simulation<Real, W>::cycleCommBytes(const std::vector<int_t>& partition,
                                                  bool faceLocal) const {
  // Analytic per-cycle byte volume if the mesh were cut along `partition`:
  // for every face crossing a cut, count the datasets the owning side sends
  // (Sec. V-C; see DESIGN.md experiment "comm_volume"). External ids — the
  // accounting never touches the arena.
  const kernels::AderKernels<Real, W>& kernels = *setup_.kernels;
  const lts::Clustering& clustering = setup_.clustering;
  const int_t nc = clustering.numClusters;
  const std::size_t realBytes = sizeof(Real);
  const std::size_t fullBuf = kernels.elasticDofsPerElement() * realBytes;
  const std::size_t faceBuf = kernels.faceDataSize() * realBytes;
  // Baseline derivative payload: truncated blocks for elastic runs, full
  // otherwise (the paper's 1,575-value argument).
  std::size_t derivPayload = 0;
  for (int_t d = 0; d < cfg_.order; ++d) {
    const int_t wid = cfg_.mechanisms > 0 ? kernels.numBasis()
                                          : numBasis3d(cfg_.order - d);
    derivPayload += static_cast<std::size_t>(kElasticVars) * wid * W * realBytes;
  }

  std::uint64_t bytes = 0;
  for (idx_t el = 0; el < mesh_.numElements(); ++el)
    for (int_t f = 0; f < 4; ++f) {
      const mesh::FaceInfo& fi = mesh_.faces[el][f];
      if (fi.neighbor < 0 || partition[el] == partition[fi.neighbor]) continue;
      const int_t cMe = clustering.cluster[el];
      const int_t cNb = clustering.cluster[fi.neighbor];
      const idx_t mySteps = lts::stepsPerCycle(nc, cMe);
      if (cfg_.scheme == TimeScheme::kLtsBaseline) {
        if (cNb < cMe)
          bytes += mySteps * derivPayload; // derivatives once per own step
        else if (cNb == cMe)
          bytes += mySteps * derivPayload;
        else
          bytes += mySteps / 2 * fullBuf; // accumulated buffer to larger
      } else {
        const std::size_t payload = faceLocal ? faceBuf : fullBuf;
        if (cNb == cMe)
          bytes += mySteps * payload; // B1 per step
        else if (cNb < cMe)
          bytes += 2 * mySteps * payload; // B2 and B1-B2 per step
        else
          bytes += mySteps / 2 * payload; // B3 once per two steps
      }
    }
  return bytes;
}

template struct FacadeSetup<float, 1>;
template struct FacadeSetup<float, 2>;
template struct FacadeSetup<float, 4>;
template struct FacadeSetup<float, 8>;
template struct FacadeSetup<float, 16>;
template struct FacadeSetup<double, 1>;
template struct FacadeSetup<double, 2>;
template struct FacadeSetup<double, 4>;

template class Simulation<float, 1>;
template class Simulation<float, 2>;
template class Simulation<float, 4>;
template class Simulation<float, 8>;
template class Simulation<float, 16>;
template class Simulation<double, 1>;
template class Simulation<double, 2>;
template class Simulation<double, 4>;

} // namespace nglts::solver
