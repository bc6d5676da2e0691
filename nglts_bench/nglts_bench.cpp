// nglts_bench — one run of one workload of the end-to-end benchmark, one
// simulation per process; run.py drives the closed loop (the next process
// starts after the previous one exits) and aggregates.
//
//   nglts_bench --workload NAME [--seed N] [--reference FILE] [--trace FILE]
//   nglts_bench --workload NAME --write-reference FILE
//   nglts_bench --probe
//
// The last line on stdout is one JSON object.
//
// Untraced runs measure what a user of the library pays: input build (mesh
// or preprocessing pipeline), the facade constructor, sources, receivers and
// initial condition (`setup_s`), then `run()` and the resampling of the
// receiver traces (`time_to_solution_s`). No warm-up: every run pays its
// first cycle, as users do.
//
// Every run executes on one thread (SimConfig::numThreads = 1; two-rank
// workloads exchange over the lockstep SeqComm). On the 2-vCPU VM the
// benchmark was sized on, two threads spread run times three times wider
// than one (12 % vs 4 % interquartile range over interleaved runs), too
// wide to resolve a 10 % regression.
//
// `--trace FILE` repeats the workload with spans around the calls into each
// module: the single-rank engine is assembled from its public parts
// (AderKernels, SolverState, SeismoHook, StepExecutor) and stepped op by
// op; two-rank workloads additionally run the distributed facade over a
// communicator that times every send and receive. Spans are kept in memory
// and written to FILE at exit. The traced runs must reproduce the untraced
// receiver traces bitwise.
//
// The seed draws one source amplitude per fused lane. The equations are
// linear in the source, so every seed is checked against the committed
// unit-amplitude reference traces (reference/<workload>.trace) scaled by
// its amplitudes, while the work done is the same for every seed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/log.hpp"
#include "kernels/ader_kernels.hpp"
#include "linalg/kernel_backend.hpp"
#include "lts/clustering.hpp"
#include "lts/schedule.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/geometry.hpp"
#include "parallel/comm.hpp"
#include "parallel/dist_sim.hpp"
#include "partition/dual_graph.hpp"
#include "partition/partitioner.hpp"
#include "physics/attenuation.hpp"
#include "pre/pipeline.hpp"
#include "seismo/misfit.hpp"
#include "seismo/receiver.hpp"
#include "seismo/source.hpp"
#include "seismo/velocity_model.hpp"
#include "solver/config.hpp"
#include "solver/executor.hpp"
#include "solver/seismo_hook.hpp"
#include "solver/setup.hpp"
#include "solver/simulation.hpp"
#include "solver/state.hpp"

namespace {

using namespace nglts;
using Clock = std::chrono::steady_clock;

/// Uniform resampling grid of every receiver component.
constexpr idx_t kSamples = 101;
/// Per-cluster and per-rank layer metrics are always emitted for this many
/// clusters / ranks (zero where a workload has fewer), so every workload
/// reports the same metric names.
constexpr int_t kClusterSlots = 5;
constexpr int_t kRankSlots = 2;
constexpr std::array<int_t, 3> kVelocity = {kVelU, kVelV, kVelW};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Insertion-ordered JSON object.
class Json {
 public:
  Json& num(const std::string& key, double v) { return raw(key, number(v)); }
  Json& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  Json& obj(const std::string& key, const Json& v) { return raw(key, v.dump()); }
  Json& raw(const std::string& key, std::string value) {
    items_.emplace_back(key, std::move(value));
    return *this;
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) out += ", ";
      out += quote(items_[i].first) + ": " + items_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

// ---------------------------------------------------------------------------
// Spans (traced runs only; opened and closed on the main thread)
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0; ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;    ///< index of the enclosing span, -1 at top level
};

class Tracer {
 public:
  int open(std::string name) {
    spans_.push_back({std::move(name), now(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  /// Closes span `id` (the innermost open one) and returns its duration.
  double close(int id) {
    spans_[id].end = now();
    stack_.pop_back();
    return spans_[id].end - spans_[id].start;
  }
  /// Summed duration of all spans called `name`.
  double total(const std::string& name) const {
    double s = 0.0;
    for (const Span& sp : spans_)
      if (sp.name == name) s += sp.end - sp.start;
    return s;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when `tr` is null (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tr, std::string name)
      : tr_(tr), id_(tr ? tr->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (tr_) tr_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tr_;
  int id_;
};

// ---------------------------------------------------------------------------
// Communicator wrapper: times every send and every receive
// ---------------------------------------------------------------------------

struct ChannelStats {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  double seconds = 0.0;
  std::array<std::uint64_t, 48> log2Ns{}; ///< duration histogram, bucket floor(log2(ns))

  void add(std::size_t n, Clock::duration d) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
    ++count;
    bytes += n;
    seconds += std::chrono::duration<double>(d).count();
    std::size_t bucket = 0;
    for (auto v = ns; v > 1 && bucket + 1 < log2Ns.size(); v >>= 1) ++bucket;
    ++log2Ns[bucket];
  }
};

/// Per-rank send and receive accounting, owned by the caller so it outlives
/// the facade that owns the communicator.
struct CommStats {
  std::vector<ChannelStats> sent, received;
  int_t ranks() const { return static_cast<int_t>(sent.size()); }
};

/// The lockstep SeqComm, recording into `CommStats`.
class TracingComm final : public parallel::Communicator {
 public:
  TracingComm(int_t ranks, CommStats& stats) : Communicator(ranks), inner_(ranks), stats_(stats) {
    stats_.sent.assign(ranks, {});
    stats_.received.assign(ranks, {});
  }

  void send(int_t from, int_t to, std::int64_t tag, std::vector<std::uint8_t> data) override {
    const std::size_t n = data.size();
    const auto t0 = Clock::now();
    inner_.send(from, to, tag, std::move(data));
    stats_.sent[from].add(n, Clock::now() - t0);
  }
  std::vector<std::uint8_t> recv(int_t to, int_t from, std::int64_t tag) override {
    const auto t0 = Clock::now();
    std::vector<std::uint8_t> data = inner_.recv(to, from, tag);
    stats_.received[to].add(data.size(), Clock::now() - t0);
    return data;
  }
  std::uint64_t bytesSent() const override { return inner_.bytesSent(); }
  std::uint64_t messagesSent() const override { return inner_.messagesSent(); }

 private:
  parallel::SeqComm inner_;
  CommStats& stats_;
};

Json channelJson(const ChannelStats& s) {
  std::string hist = "[";
  for (std::size_t i = 0; i < s.log2Ns.size(); ++i) hist += (i ? ", " : "") + number(s.log2Ns[i]);
  return Json()
      .num("count", s.count)
      .num("bytes", s.bytes)
      .num("seconds", s.seconds)
      .raw("log2_ns_histogram", hist + "]");
}

// ---------------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------------

/// Everything a facade needs, built from the seed's lane amplitudes.
struct Inputs {
  mesh::TetMesh mesh;
  std::vector<physics::Material> materials;
  solver::SimConfig cfg;
  std::vector<int_t> part;            ///< rank per element; empty = one rank
  lts::Clustering pipelineClustering; ///< pipeline workloads: the clustering partitioned on
  std::vector<seismo::PointSource> sources;
  solver::InitialConditionFn initial; ///< empty = quiescent start
  std::vector<double> laneScale;      ///< source / initial-condition amplitude per lane
  std::vector<std::array<double, 3>> receivers;
  double endTime = 0.0;

  int_t ranks() const { return part.empty() ? 1 : 2; }
};

/// Point-source workloads: moment-tensor double couple with a Brune moment
/// rate, receivers a few hundred metres away so the traces carry the pulse
/// within the short simulated window.
void addLohSource(Inputs& in) {
  auto stf = std::make_shared<seismo::BrunePulse>(0.03, 1e16);
  in.sources.push_back(
      seismo::momentTensorSource({3000.0, 3000.0, -2000.0}, {0, 0, 0, 1.0, 0, 0}, stf));
  in.receivers = {{3250.0, 3150.0, -1850.0}, {2800.0, 3200.0, -2150.0}};
}

/// Gaussian vertical-velocity bump scaled per lane.
solver::InitialConditionFn gaussianBump(std::array<double, 3> center, double width2,
                                        std::vector<double> laneScale) {
  return [center, width2, laneScale](const std::array<double, 3>& x, int_t lane, double* q9) {
    for (int_t v = 0; v < kElasticVars; ++v) q9[v] = 0.0;
    double r2 = 0.0;
    for (int_t d = 0; d < 3; ++d) r2 += (x[d] - center[d]) * (x[d] - center[d]);
    q9[kVelW] = laneScale[lane] * std::exp(-r2 / width2);
  };
}

/// Pipeline output -> inputs of a two-rank run: reordered mesh, materials,
/// partition, and the swept lambda pinned so the facade's own clustering
/// reproduces the pipeline's without sweeping again.
void takePipeline(Inputs& in, pre::PipelineResult pipe) {
  in.mesh = std::move(pipe.mesh);
  in.materials = std::move(pipe.materials);
  in.part = std::move(pipe.parts.part);
  in.pipelineClustering = std::move(pipe.clustering);
  in.cfg.lambda = in.pipelineClustering.lambda;
  in.cfg.autoLambda = false;
}

/// The `loh3` scenario's mesh rule at scale 0.8 (~5k tets): anelastic f64,
/// dense kernels, next-gen LTS with the lambda sweep over 3 clusters.
Inputs loh3Inputs(std::vector<double> laneScale, Tracer* tr) {
  Inputs in;
  in.cfg.order = 4;
  in.cfg.mechanisms = 3;
  in.cfg.attenuationFreq = 1.0;
  in.cfg.scheme = solver::TimeScheme::kLtsNextGen;
  in.cfg.numClusters = 3;
  in.cfg.autoLambda = true;
  in.cfg.receiverSampleDt = 0.001;
  {
    ScopedSpan s(tr, "mesh.build");
    const double scale = 0.8;
    const idx_t lateral = std::llround(14 * scale);
    mesh::BoxSpec spec;
    spec.planes[0] = mesh::uniformPlanes(0.0, 6000.0, lateral);
    spec.planes[1] = mesh::uniformPlanes(0.0, 6000.0, lateral);
    spec.planes[2] = mesh::gradedPlanes(
        -3000.0, 0.0, [&](double z) { return (z > -1000.0 ? 260.0 : 450.0) / scale; });
    spec.jitter = 0.2;
    spec.freeSurfaceTop = true;
    in.mesh = mesh::generateBox(spec);
  }
  {
    ScopedSpan s(tr, "mesh.materials");
    in.materials = seismo::materialsForMesh(in.mesh, seismo::Loh3Model(0.0), in.cfg.mechanisms,
                                            in.cfg.attenuationFreq);
  }
  addLohSource(in);
  in.laneScale = std::move(laneScale);
  in.endTime = 0.05;
  return in;
}

/// The `loh1` pipeline at scale 2 (3,456 tets): elastic f64 over two ranks,
/// lockstep exchange with face compression.
Inputs loh1Inputs(std::vector<double> laneScale, Tracer* tr) {
  Inputs in;
  in.cfg.order = 4;
  in.cfg.mechanisms = 0;
  in.cfg.scheme = solver::TimeScheme::kLtsNextGen;
  in.cfg.numClusters = 4;
  in.cfg.receiverSampleDt = 0.001;
  const seismo::LayeredModel model({{-1000.0, {2600.0, 4000.0, 2000.0, 1e30, 1e30}},
                                    {-3000.0, {2700.0, 6000.0, 3464.0, 1e30, 1e30}}});
  pre::PipelineConfig pcfg;
  pcfg.lo = {0.0, 0.0, -3000.0};
  pcfg.hi = {6000.0, 6000.0, 0.0};
  pcfg.maxFrequency = 2.0;
  pcfg.elementsPerWavelength = 2.0;
  pcfg.minEdge = 200.0;
  pcfg.maxEdge = 2500.0;
  pcfg.jitter = 0.2;
  pcfg.order = in.cfg.order;
  pcfg.mechanisms = in.cfg.mechanisms;
  pcfg.cfl = in.cfg.cfl;
  pcfg.numClusters = in.cfg.numClusters;
  pcfg.autoLambda = true;
  pcfg.numPartitions = 2;
  {
    ScopedSpan s(tr, "pre.pipeline");
    takePipeline(in, pre::runPipeline(model, pcfg));
  }
  addLohSource(in);
  in.laneScale = std::move(laneScale);
  in.endTime = 0.08;
  return in;
}

/// The `fused` scenario's box at scale 0.7 (1,296 tets): 16 fused f32
/// lanes through the fully sparse CSR kernels, 3 clusters. The ensemble
/// members differ in the amplitude of their initial condition.
Inputs fusedInputs(std::vector<double> laneScale, Tracer* tr) {
  Inputs in;
  in.cfg.order = 4;
  in.cfg.mechanisms = 3;
  in.cfg.scheme = solver::TimeScheme::kLtsNextGen;
  in.cfg.numClusters = 3;
  in.cfg.sparseKernels = true;
  in.cfg.attenuationFreq = 1.0;
  in.cfg.receiverSampleDt = 0.002;
  {
    ScopedSpan s(tr, "mesh.build");
    const idx_t cells = std::llround(8 * 0.7);
    mesh::BoxSpec spec;
    spec.planes[0] = mesh::uniformPlanes(0.0, 2000.0, cells);
    spec.planes[1] = mesh::uniformPlanes(0.0, 2000.0, cells);
    spec.planes[2] = mesh::uniformPlanes(-2000.0, 0.0, cells);
    spec.jitter = 0.18;
    spec.freeSurfaceTop = true;
    in.mesh = mesh::generateBox(spec);
  }
  {
    ScopedSpan s(tr, "mesh.materials");
    in.materials.resize(in.mesh.numElements());
    for (idx_t e = 0; e < in.mesh.numElements(); ++e) {
      const double vs = in.mesh.centroid(e)[2] > -500.0 ? 800.0 : 2400.0;
      in.materials[e] = physics::viscoElasticMaterial(2600.0, vs * 1.8, vs, 100.0, 50.0,
                                                      in.cfg.mechanisms, in.cfg.attenuationFreq);
    }
  }
  in.initial = gaussianBump({1000.0, 1000.0, -800.0}, 3.2e5, laneScale);
  in.receivers = {{1300.0, 1150.0, -650.0}, {750.0, 900.0, -1050.0}};
  in.laneScale = std::move(laneScale);
  in.endTime = 0.03;
  return in;
}

/// The `lahabra` pipeline at scale 0.65 (6,624 tets, 5 populated clusters,
/// lambda sweep, weighted 2-way partition): anelastic f32 over two ranks,
/// one LTS cycle.
Inputs lahabraInputs(std::vector<double> laneScale, Tracer* tr) {
  Inputs in;
  in.cfg.order = 4;
  in.cfg.mechanisms = 3;
  in.cfg.scheme = solver::TimeScheme::kLtsNextGen;
  in.cfg.numClusters = 5;
  seismo::LaHabraLikeModel::Params params;
  params.zTop = 0.0;
  params.basinCenter = {8000.0, 8000.0};
  params.vsMin = 250.0;
  const double scale = 0.65;
  pre::PipelineConfig pcfg;
  pcfg.lo = {0.0, 0.0, -6000.0};
  pcfg.hi = {16000.0, 16000.0, 0.0};
  pcfg.maxFrequency = 0.5 * scale;
  pcfg.elementsPerWavelength = 2.0;
  pcfg.minEdge = 150.0 / scale;
  pcfg.order = in.cfg.order;
  pcfg.mechanisms = in.cfg.mechanisms;
  pcfg.cfl = in.cfg.cfl;
  pcfg.numClusters = in.cfg.numClusters;
  pcfg.autoLambda = true;
  pcfg.numPartitions = 2;
  {
    ScopedSpan s(tr, "pre.pipeline");
    takePipeline(in, pre::runPipeline(seismo::LaHabraLikeModel(params), pcfg));
  }
  in.initial = gaussianBump({8000.0, 8000.0, -3000.0}, 1.2e6, laneScale);
  in.receivers = {{8500.0, 8300.0, -2700.0}, {7600.0, 7800.0, -3400.0}};
  in.laneScale = std::move(laneScale);
  in.endTime = in.pipelineClustering.clusterDt.back(); // one cycle
  return in;
}

struct Workload {
  const char* name;
  bool f32;
  int width;
  Inputs (*build)(std::vector<double> laneScale, Tracer* tr);
};

const std::array<Workload, 4> kWorkloads = {{
    {"loh3_lts", false, 1, loh3Inputs},
    {"loh1_ranks2", false, 1, loh1Inputs},
    {"fused16_f32", true, 16, fusedInputs},
    {"lahabra_pipeline", true, 1, lahabraInputs},
}};

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// One amplitude in [0.5, 2) per lane, drawn from the seed.
std::vector<double> laneAmplitudes(std::uint64_t seed, int width) {
  std::vector<double> a(width);
  std::uint64_t state = seed;
  for (double& v : a) v = 0.5 + 1.5 * static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  return a;
}

// ---------------------------------------------------------------------------
// Receiver traces
// ---------------------------------------------------------------------------

struct Traces {
  /// Resampled velocity components, column (receiver * W + lane) * 3 + q.
  std::vector<std::vector<double>> columns;
  std::uint64_t digest = 0xcbf29ce484222325ull; ///< FNV-1a over the raw samples' bits
  int_t lanes = 1;

  void hash(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) digest = (digest ^ b[i]) * 0x100000001b3ull;
  }
  std::string digestHex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(digest));
    return buf;
  }
};

template <typename Sim>
Traces collectTraces(const Sim& sim, std::size_t receivers, int_t lanes, double endTime) {
  Traces t;
  t.lanes = lanes;
  for (std::size_t r = 0; r < receivers; ++r) {
    const seismo::Receiver& rec = sim.receiver(static_cast<idx_t>(r));
    for (int_t lane = 0; lane < lanes; ++lane) {
      const seismo::Seismogram& s = rec.traces[lane];
      t.hash(s.times.data(), s.times.size() * sizeof(double));
      t.hash(s.values.data(), s.values.size() * sizeof(s.values[0]));
      for (int_t q : kVelocity) t.columns.push_back(seismo::resample(s, q, endTime, kSamples));
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Facade runs (the user's path)
// ---------------------------------------------------------------------------

struct FacadeRun {
  double setup = 0.0; ///< input build + facade + sources/receivers/initial condition
  double run = 0.0;   ///< wall seconds of run()
  double total = 0.0; ///< through resampled receiver traces
  std::uint64_t cycles = 0;
  double simulated = 0.0;
  std::uint64_t messages = 0, commBytes = 0;
  Traces traces;
};

template <typename Sim>
void attach(Sim& sim, const Inputs& in) {
  if (in.initial) sim.setInitialCondition(in.initial);
  for (const seismo::PointSource& src : in.sources) sim.addPointSource(src, in.laneScale);
  for (const auto& pos : in.receivers)
    if (sim.addReceiver(pos) < 0) throw std::runtime_error("receiver outside the mesh");
}

void commCounts(const solver::PerfStats&, FacadeRun&) {}
void commCounts(const parallel::DistStats& st, FacadeRun& out) {
  out.messages = st.messages;
  out.commBytes = st.commBytes;
}

template <int W, typename Sim>
void runAndCollect(Sim& sim, const Inputs& in, Clock::time_point t0, FacadeRun& out,
                   Tracer* tr) {
  const auto r0 = Clock::now();
  const auto st = [&] {
    ScopedSpan s(tr, "parallel.run");
    return sim.run(in.endTime);
  }();
  out.run = since(r0);
  out.cycles = st.cycles;
  out.simulated = st.simulatedTime;
  commCounts(st, out);
  out.traces = collectTraces(sim, in.receivers.size(), W, in.endTime);
  out.total = since(t0);
}

/// Run `in` through the facade a user would pick: `Simulation` for one
/// rank, `DistributedSimulation` (lockstep transport) for two. `t0` is when
/// the input build started. `comm` (two ranks only) swaps in the timing
/// communicator; `tr` records the facade spans.
template <typename Real, int W>
FacadeRun runFacade(Inputs in, Clock::time_point t0, CommStats* comm, Tracer* tr) {
  FacadeRun out;
  if (in.ranks() == 1) {
    solver::Simulation<Real, W> sim(std::move(in.mesh), std::move(in.materials), in.cfg);
    attach(sim, in);
    out.setup = since(t0);
    runAndCollect<W>(sim, in, t0, out, tr);
    return out;
  }
  parallel::DistConfig dcfg;
  dcfg.sim = in.cfg;
  dcfg.compressFaces = true;
  if (comm)
    dcfg.commFactory = [comm](int_t ranks) -> std::unique_ptr<parallel::Communicator> {
      return std::make_unique<TracingComm>(ranks, *comm);
    };
  std::unique_ptr<parallel::DistributedSimulation<Real, W>> sim;
  {
    ScopedSpan s(tr, "parallel.setup");
    sim = std::make_unique<parallel::DistributedSimulation<Real, W>>(
        std::move(in.mesh), std::move(in.materials), in.part, dcfg);
  }
  {
    ScopedSpan s(tr, "parallel.attach");
    attach(*sim, in);
  }
  out.setup = since(t0);
  runAndCollect<W>(*sim, in, t0, out, tr);
  return out;
}

// ---------------------------------------------------------------------------
// Traced single-rank engine, assembled from the public parts
// ---------------------------------------------------------------------------

struct OpTimes {
  std::array<double, kClusterSlots> local{}, neighbor{}; ///< seconds per cluster
  std::vector<double> cycleSeconds;
  std::uint64_t flops = 0;
  double run = 0.0;
};

struct KernelSweep {
  double timePredictNs = 0.0, volumeLocalNs = 0.0, neighborFaceNs = 0.0;
  double localGflops = 0.0, neighborGflops = 0.0;
  double localFlopsPerByte = 0.0, neighborFlopsPerByte = 0.0;
};

/// The `Simulation` constructor's sequence with one span per public part.
/// Holds references between its members, so it is neither copied nor moved.
template <typename Real, int W>
class Engine {
 public:
  Engine(const Inputs& in, Tracer& tr)
      : cfg_(in.cfg), mesh_(in.mesh), materials_(in.materials) {
    cfg_.precision = std::is_same_v<Real, float> ? solver::Precision::kF32
                                                 : solver::Precision::kF64;
    {
      ScopedSpan s(&tr, "mesh.geometry");
      geo_ = mesh::computeGeometry(mesh_);
    }
    {
      ScopedSpan s(&tr, "lts.clustering");
      const std::vector<double> dtCfl = lts::cflTimeSteps(geo_, materials_, cfg_.order, cfg_.cfl);
      clustering_ = solver::resolveClustering(mesh_, dtCfl, cfg_);
    }
    std::vector<lts::ScheduleOp> schedule = lts::buildSchedule(clustering_.numClusters);
    lts::checkSchedule(schedule, clustering_.numClusters);
    {
      ScopedSpan s(&tr, "kernels.setup");
      kernels_ = std::make_unique<kernels::AderKernels<Real, W>>(
          cfg_.order, cfg_.mechanisms, cfg_.sparseKernels,
          solver::resolveOmega(materials_, cfg_.mechanisms), cfg_.kernelBackend);
    }
    {
      ScopedSpan s(&tr, "solver.arena_setup");
      state_ = std::make_unique<solver::SolverState<Real, W>>(mesh_, materials_, geo_,
                                                              clustering_, *kernels_, cfg_);
    }
    {
      ScopedSpan s(&tr, "seismo.setup");
      const double recDt =
          cfg_.receiverSampleDt > 0.0 ? cfg_.receiverSampleDt : clustering_.dtMin;
      hook_ = std::make_unique<solver::SeismoHook<Real, W>>(mesh_, geo_, materials_, *kernels_,
                                                            *state_, recDt);
      for (const seismo::PointSource& src : in.sources) {
        const idx_t el = mesh::locatePoint(mesh_, geo_, src.position);
        if (el < 0) throw std::runtime_error("source outside the mesh");
        hook_->addPointSource(el, src, in.laneScale);
      }
      for (const auto& pos : in.receivers) {
        const idx_t el = mesh::locatePoint(mesh_, geo_, pos);
        if (el < 0) throw std::runtime_error("receiver outside the mesh");
        hook_->addReceiver(el, pos);
      }
    }
    if (in.initial) {
      ScopedSpan s(&tr, "solver.initial_condition");
      solver::projectInitialCondition(*kernels_, mesh_, geo_, in.initial, *state_,
                                      mesh_.numElements());
    }
    {
      ScopedSpan s(&tr, "solver.executor_setup");
      exec_ = std::make_unique<solver::StepExecutor<Real, W>>(cfg_, *kernels_, *state_,
                                                              clustering_, std::move(schedule),
                                                              hook_.get());
    }
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const lts::Clustering& clustering() const { return clustering_; }
  const seismo::Receiver& receiver(idx_t i) const { return hook_->receiver(i); }
  std::uint64_t updatesPerCycle() const {
    std::uint64_t n = 0;
    for (int_t c = 0; c < clustering_.numClusters; ++c)
      n += clustering_.clusterSize[c] * lts::stepsPerCycle(clustering_.numClusters, c);
    return n;
  }

  /// `Simulation::run` stepped op by op, one span per op.
  OpTimes run(double endTime, Tracer& tr) {
    const int_t nc = clustering_.numClusters;
    if (nc > kClusterSlots) throw std::runtime_error("more clusters than metric slots");
    std::vector<std::string> localName(nc), neighborName(nc);
    for (int_t c = 0; c < nc; ++c) {
      localName[c] = "solver.local.c" + std::to_string(c);
      neighborName[c] = "solver.neighbor.c" + std::to_string(c);
    }
    const auto cycles =
        static_cast<std::uint64_t>(std::ceil(endTime / clustering_.clusterDt.back() - 1e-9));
    OpTimes out;
    exec_->drainFlops();
    const auto r0 = Clock::now();
    for (std::uint64_t k = 0; k < cycles; ++k) {
      const int cycle = tr.open("solver.cycle");
      for (const lts::ScheduleOp& op : exec_->schedule()) {
        const bool local = op.kind == lts::PhaseKind::kLocal;
        const int id = tr.open(local ? localName[op.cluster] : neighborName[op.cluster]);
        exec_->runOp(op);
        (local ? out.local : out.neighbor)[op.cluster] += tr.close(id);
      }
      out.cycleSeconds.push_back(tr.close(cycle));
    }
    out.run = since(r0);
    out.flops = exec_->drainFlops();
    return out;
  }

  /// Single-thread pass over the arena through the public kernel calls, in
  /// the executor's per-element order. Run after `run()`: it overwrites the
  /// DOFs and buffers. Bytes are computed from the arena and operator sizes
  /// (compulsory traffic, no cache model).
  KernelSweep sweepKernels() {
    auto s = kernels_->makeScratch();
    const auto& m = state_->internalMesh();
    const idx_t n = state_->numOwned();
    const bool anel = cfg_.mechanisms > 0;
    const double real = sizeof(Real);
    const double qBytes = real * state_->elSize();
    const double bufBytes = real * state_->bufSize();
    const double starBytes = real * (3 * 81 + (anel ? 3 * 54 + 54.0 * cfg_.mechanisms : 0));
    const double fluxBytes = real * (81 + (anel ? 54 : 0)); // one face's flux solver
    double tpS = 0, vlS = 0, nbS = 0, localBytes = 0, neighborBytes = 0;
    std::uint64_t localFlops = 0, neighborFlops = 0, faces = 0;
    for (idx_t el = 0; el < n; ++el) {
      const kernels::ElementData<Real>& ed = state_->elementData(el);
      const Real dt = static_cast<Real>(clustering_.clusterDt[state_->clusterOf(el)]);
      Real* q = state_->q(el);
      Real* b2 = state_->useB2() ? state_->b2(el) : nullptr;
      Real* b3 = state_->useB3() ? state_->b3(el) : nullptr;
      const auto t0 = Clock::now();
      localFlops +=
          kernels_->timePredict(ed, q, dt, s.timeInt.data(), state_->b1(el), b2, b3, false, s);
      const auto t1 = Clock::now();
      localFlops += kernels_->volumeAndLocalSurface(ed, s.timeInt.data(), q, s);
      const auto t2 = Clock::now();
      std::uint64_t elFaces = 0;
      for (int_t f = 0; f < 4; ++f) {
        const mesh::FaceInfo& fi = m.faces[el][f];
        if (fi.neighbor < 0) continue;
        neighborFlops += kernels_->neighborContribution(ed, f, fi.neighborFace, fi.perm,
                                                        state_->b1(fi.neighbor), q, s);
        ++elFaces;
      }
      const auto t3 = Clock::now();
      tpS += std::chrono::duration<double>(t1 - t0).count();
      vlS += std::chrono::duration<double>(t2 - t1).count();
      nbS += std::chrono::duration<double>(t3 - t2).count();
      faces += elFaces;
      // q read + written, b1 (+ b2, + b3) written, star + 4 local flux solvers read.
      localBytes += 2 * qBytes + bufBytes * (1 + (b2 ? 1 : 0) + (b3 ? 1 : 0)) + starBytes +
                    4 * fluxBytes;
      if (elFaces) neighborBytes += 2 * qBytes + elFaces * (bufBytes + fluxBytes);
    }
    KernelSweep k;
    k.timePredictNs = 1e9 * tpS / std::max<idx_t>(n, 1);
    k.volumeLocalNs = 1e9 * vlS / std::max<idx_t>(n, 1);
    k.neighborFaceNs = 1e9 * nbS / std::max<std::uint64_t>(faces, 1);
    k.localGflops = tpS + vlS > 0 ? 1e-9 * localFlops / (tpS + vlS) : 0.0;
    k.neighborGflops = nbS > 0 ? 1e-9 * neighborFlops / nbS : 0.0;
    k.localFlopsPerByte = localBytes > 0 ? localFlops / localBytes : 0.0;
    k.neighborFlopsPerByte = neighborBytes > 0 ? neighborFlops / neighborBytes : 0.0;
    return k;
  }

 private:
  solver::SimConfig cfg_;
  mesh::TetMesh mesh_;
  std::vector<physics::Material> materials_;
  std::vector<mesh::ElementGeometry> geo_;
  lts::Clustering clustering_;
  std::unique_ptr<kernels::AderKernels<Real, W>> kernels_;
  std::unique_ptr<solver::SolverState<Real, W>> state_;
  std::unique_ptr<solver::SeismoHook<Real, W>> hook_;
  std::unique_ptr<solver::StepExecutor<Real, W>> exec_;
};

// ---------------------------------------------------------------------------
// Output check against the unit-amplitude reference traces
// ---------------------------------------------------------------------------

/// Reference file: '#' comment lines, then one row per sample: the time and
/// vx vy vz of every receiver (fused lane 0, unit amplitude).
void writeReference(const std::string& path, const std::string& workload, const Traces& t,
                    std::size_t receivers, double endTime) {
  std::ofstream out(path);
  out << "# nglts_bench reference traces: workload " << workload << ", unit amplitude\n";
  out << "# columns: time, then vx vy vz per receiver (" << receivers << " receivers)\n";
  char buf[32];
  for (idx_t i = 0; i < kSamples; ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", endTime * i / (kSamples - 1));
    out << buf;
    for (std::size_t r = 0; r < receivers; ++r)
      for (int_t q = 0; q < 3; ++q) {
        std::snprintf(buf, sizeof buf, " %.17g", t.columns[(r * t.lanes) * 3 + q][i]);
        out << buf;
      }
    out << '\n';
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Reference columns (receiver * 3 + q); throws on a malformed file.
std::vector<std::vector<double>> readReference(const std::string& path, std::size_t receivers) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing reference " + path);
  std::vector<std::vector<double>> cols(receivers * 3);
  std::string line;
  idx_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    double t = 0.0;
    row >> t;
    for (auto& c : cols) {
      double v = 0.0;
      if (!(row >> v)) throw std::runtime_error(path + ": short row");
      c.push_back(v);
    }
    ++rows;
  }
  if (rows != kSamples) throw std::runtime_error(path + ": wrong sample count");
  return cols;
}

struct Check {
  bool ok = true;
  double worstSampleErr = 0.0; ///< max |x - a r| / (a peak(r)) over receivers and lanes
  double worstMisfit = 0.0;    ///< max energy misfit E over receivers and lanes
  std::string detail;

  void fail(const std::string& why) {
    if (ok) detail = why;
    ok = false;
  }
};

/// Traces must be finite and non-zero; with a reference, each receiver's
/// lane must match amplitude x reference: f64 per sample within 1e-9 of the
/// peak and E < 1e-12, f32 E < 1e-7.
Check checkTraces(const Traces& t, const std::vector<double>& laneScale,
                  const std::vector<std::vector<double>>* ref, bool f32) {
  Check c;
  const std::size_t receivers = t.columns.size() / (3 * t.lanes);
  for (std::size_t r = 0; r < receivers; ++r)
    for (int_t lane = 0; lane < t.lanes; ++lane) {
      std::vector<double> got, expect;
      for (int_t q = 0; q < 3; ++q) {
        const auto& col = t.columns[(r * t.lanes + lane) * 3 + q];
        got.insert(got.end(), col.begin(), col.end());
        if (ref)
          for (double v : (*ref)[r * 3 + q]) expect.push_back(laneScale[lane] * v);
      }
      for (double v : got)
        if (!std::isfinite(v)) c.fail("non-finite trace sample");
      if (seismo::peakAmplitude(got) == 0.0) c.fail("all-zero receiver trace");
      if (!ref || !c.ok) continue;
      const double peak = seismo::peakAmplitude(expect);
      double err = 0.0;
      for (std::size_t i = 0; i < got.size(); ++i)
        err = std::max(err, std::fabs(got[i] - expect[i]) / peak);
      const double e = seismo::energyMisfit(got, expect);
      c.worstSampleErr = std::max(c.worstSampleErr, err);
      c.worstMisfit = std::max(c.worstMisfit, e);
      if (f32 ? !(e < 1e-7) : !(err <= 1e-9 && e < 1e-12))
        c.fail("receiver " + std::to_string(r) + " lane " + std::to_string(lane) +
               " deviates from the reference (sample err " + number(err) + ", E " +
               number(e) + ")");
    }
  return c;
}

// ---------------------------------------------------------------------------
// Machine probe: STREAM-style triad and register-resident FMA peak
// ---------------------------------------------------------------------------

/// Last-level cache as `getconf LEVEL3_CACHE_SIZE` reports it (L2 if none).
long lastLevelCache() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return llc > 0 ? llc : 8l << 20;
}

/// Single-thread triad a = b + s c (the kernel sweep it is the roof for is
/// single-threaded too). Each array is 4x the last-level cache, capped so
/// the three arrays stay within 1/8 of physical memory. Best of 5 passes;
/// bytes counted STREAM-style (2 reads + 1 write per element).
double triadGbs(std::size_t arrayBytes) {
  const std::size_t n = arrayBytes / sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  double best = 1e300;
  for (int pass = 0; pass < 5; ++pass) {
    const double s = 0.5 + pass;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    best = std::min(best, since(t0));
  }
  if (!(a[n / 2] > 0.0)) throw std::runtime_error("triad produced no data");
  return 3.0 * arrayBytes / best * 1e-9;
}

constexpr int kFmaChains = 12; ///< independent accumulators: enough to hide FMA latency

#if defined(__x86_64__)
__attribute__((target("avx512f"))) double fmaLoopAvx512(long iters, bool f32) {
  double sink = 0.0;
  alignas(64) float fs[16];
  alignas(64) double ds[8];
  if (f32) {
    __m512 acc[kFmaChains];
    for (int k = 0; k < kFmaChains; ++k) acc[k] = _mm512_set1_ps(1.0f + k * 1e-3f);
    const __m512 x = _mm512_set1_ps(0.9999999f), y = _mm512_set1_ps(1e-7f);
    for (long i = 0; i < iters; ++i)
      for (int k = 0; k < kFmaChains; ++k) acc[k] = _mm512_fmadd_ps(acc[k], x, y);
    for (int k = 0; k < kFmaChains; ++k) {
      _mm512_store_ps(fs, acc[k]);
      for (float v : fs) sink += v;
    }
  } else {
    __m512d acc[kFmaChains];
    for (int k = 0; k < kFmaChains; ++k) acc[k] = _mm512_set1_pd(1.0 + k * 1e-3);
    const __m512d x = _mm512_set1_pd(0.9999999), y = _mm512_set1_pd(1e-7);
    for (long i = 0; i < iters; ++i)
      for (int k = 0; k < kFmaChains; ++k) acc[k] = _mm512_fmadd_pd(acc[k], x, y);
    for (int k = 0; k < kFmaChains; ++k) {
      _mm512_store_pd(ds, acc[k]);
      for (double v : ds) sink += v;
    }
  }
  return sink;
}

__attribute__((target("avx2,fma"))) double fmaLoopAvx2(long iters, bool f32) {
  double sink = 0.0;
  alignas(32) float fs[8];
  alignas(32) double ds[4];
  if (f32) {
    __m256 acc[kFmaChains];
    for (int k = 0; k < kFmaChains; ++k) acc[k] = _mm256_set1_ps(1.0f + k * 1e-3f);
    const __m256 x = _mm256_set1_ps(0.9999999f), y = _mm256_set1_ps(1e-7f);
    for (long i = 0; i < iters; ++i)
      for (int k = 0; k < kFmaChains; ++k) acc[k] = _mm256_fmadd_ps(acc[k], x, y);
    for (int k = 0; k < kFmaChains; ++k) {
      _mm256_store_ps(fs, acc[k]);
      for (float v : fs) sink += v;
    }
  } else {
    __m256d acc[kFmaChains];
    for (int k = 0; k < kFmaChains; ++k) acc[k] = _mm256_set1_pd(1.0 + k * 1e-3);
    const __m256d x = _mm256_set1_pd(0.9999999), y = _mm256_set1_pd(1e-7);
    for (long i = 0; i < iters; ++i)
      for (int k = 0; k < kFmaChains; ++k) acc[k] = _mm256_fmadd_pd(acc[k], x, y);
    for (int k = 0; k < kFmaChains; ++k) {
      _mm256_store_pd(ds, acc[k]);
      for (double v : ds) sink += v;
    }
  }
  return sink;
}
#endif

/// Single-thread peak GFLOP/s of dependent-free FMA chains at the widest
/// vector ISA the CPU offers (the ISA the vector kernel backend dispatches
/// to). Scalar fallback elsewhere.
double fmaPeakGflops(bool f32) {
  const long iters = 20'000'000;
  int lanes = 1;
  std::function<double()> loop;
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) {
    lanes = f32 ? 16 : 8;
    loop = [=] { return fmaLoopAvx512(iters, f32); };
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    lanes = f32 ? 8 : 4;
    loop = [=] { return fmaLoopAvx2(iters, f32); };
  }
#endif
  if (!loop)
    loop = [=] {
      double acc[kFmaChains];
      for (int k = 0; k < kFmaChains; ++k) acc[k] = 1.0 + k * 1e-3;
      for (long i = 0; i < iters; ++i)
        for (double& a : acc) a = std::fma(a, 0.9999999, 1e-7);
      double s = 0.0;
      for (double a : acc) s += a;
      return s;
    };
  double best = 1e300, sink = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = Clock::now();
    sink += loop();
    best = std::min(best, since(t0));
  }
  if (!std::isfinite(sink)) throw std::runtime_error("FMA probe overflowed");
  return 2.0 * kFmaChains * lanes * static_cast<double>(iters) / best * 1e-9;
}

Json machineProbe() {
  const long llc = lastLevelCache();
  const double physical = static_cast<double>(sysconf(_SC_PHYS_PAGES)) * sysconf(_SC_PAGESIZE);
  const auto doubles = static_cast<std::size_t>(
      std::min(4.0 * static_cast<double>(llc), physical / 8.0 / 3.0) / sizeof(double));
  const std::size_t arrayBytes = doubles * sizeof(double);
  return Json()
      .num("machine.triad_gbs", triadGbs(arrayBytes))
      .num("machine.fma_peak_gflops_f64", fmaPeakGflops(false))
      .num("machine.fma_peak_gflops_f32", fmaPeakGflops(true))
      .num("machine.llc_bytes", static_cast<double>(llc))
      .num("machine.triad_array_bytes", static_cast<double>(arrayBytes));
}

// ---------------------------------------------------------------------------
// Run metadata and the per-layer report
// ---------------------------------------------------------------------------

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0; // kilobytes on Linux
}

Json metadata(const Workload& wl, std::uint64_t seed, const Inputs& in) {
  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return Json()
      .str("host", host)
      .num("nproc", std::thread::hardware_concurrency())
      .str("compiler", compiler)
      .str("build_type", NGLTS_BENCH_BUILD_TYPE)
      .str("kernel_backend", linalg::resolvedKernelBackendLabel(in.cfg.kernelBackend))
      .num("seed", static_cast<double>(seed))
      .str("precision", wl.f32 ? "f32" : "f64")
      .num("fused_width", wl.width)
      .num("ranks", in.ranks())
      .num("threads_per_rank", in.cfg.numThreads)
      .num("elements", static_cast<double>(in.mesh.numElements()))
      .num("end_time_s", in.endTime);
}

/// Percentile by nearest rank of sorted `v` (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::min(v.size() - 1, i > 0 ? i - 1 : 0)];
}

template <typename Real, int W>
Json tracedRun(const Workload& wl, const std::vector<double>& laneScale,
               const FacadeRun& plain, const std::string& traceFile, Check& check) {
  Tracer tr;
  const Inputs in = wl.build(laneScale, &tr);
  Json layers;
  layers.num("mesh.elements", static_cast<double>(in.mesh.numElements()))
      .num("mesh.build_s", tr.total("mesh.build"))
      .num("pre.pipeline_s", tr.total("pre.pipeline"));

  // Two ranks: the distributed facade over the timing communicator.
  CommStats stats;
  const CommStats* comm = in.ranks() > 1 ? &stats : nullptr;
  FacadeRun dist;
  double partitionS = 0.0, weightedImbalance = 0.0;
  if (in.ranks() > 1) {
    dist = runFacade<Real, W>(in, Clock::now(), &stats, &tr);
    if (dist.traces.digest != plain.traces.digest)
      check.fail("distributed traced run differs from the untraced run");
    // Partition metrics on the pipeline's mesh and clustering.
    const int span = tr.open("partition");
    const auto graph = partition::buildPartitionGraph(in.mesh, in.pipelineClustering,
                                                      partition::PartitionWeighting::kWeighted);
    partition::partitionGraph(graph, in.mesh, in.ranks());
    partitionS = tr.close(span);
    weightedImbalance = partition::measureImbalance(graph, in.part, in.ranks());
  }

  // The single-rank engine from its parts, stepped op by op.
  auto engine = std::make_unique<Engine<Real, W>>(in, tr);
  const OpTimes ops = engine->run(in.endTime, tr);
  const Traces traces = collectTraces(*engine, in.receivers.size(), W, in.endTime);
  if (traces.digest != plain.traces.digest)
    check.fail("op-by-op traced engine differs from the untraced run");
  const KernelSweep k = engine->sweepKernels();

  const lts::Clustering& cl = engine->clustering();
  const int_t nc = cl.numClusters;
  int_t populated = 0;
  for (idx_t n : cl.clusterSize) populated += n > 0;
  layers.num("mesh.geometry_s", tr.total("mesh.geometry"))
      .num("lts.clustering_s", tr.total("lts.clustering"))
      .num("lts.lambda", cl.lambda)
      .num("lts.populated_clusters", populated)
      .num("lts.theoretical_speedup", cl.theoreticalSpeedup);
  for (int_t c = 0; c < kClusterSlots; ++c)
    layers.num("lts.cluster_size.c" + std::to_string(c),
               c < nc ? static_cast<double>(cl.clusterSize[c]) : 0.0);
  layers.num("partition.s", partitionS).num("partition.weighted_imbalance", weightedImbalance);
  layers.num("kernels.setup_s", tr.total("kernels.setup"))
      .num("kernels.time_predict_ns", k.timePredictNs)
      .num("kernels.volume_local_ns", k.volumeLocalNs)
      .num("kernels.neighbor_face_ns", k.neighborFaceNs)
      .num("kernels.local_gflops", k.localGflops)
      .num("kernels.neighbor_gflops", k.neighborGflops)
      .num("kernels.local_flops_per_byte", k.localFlopsPerByte)
      .num("kernels.neighbor_flops_per_byte", k.neighborFlopsPerByte);

  const auto cycles = static_cast<double>(ops.cycleSeconds.size());
  double localS = 0.0, neighborS = 0.0;
  for (int_t c = 0; c < kClusterSlots; ++c) {
    localS += ops.local[c];
    neighborS += ops.neighbor[c];
  }
  layers.num("solver.arena_setup_s", tr.total("solver.arena_setup"))
      .num("solver.initial_condition_s", tr.total("solver.initial_condition"))
      .num("solver.local_s", localS)
      .num("solver.neighbor_s", neighborS);
  for (int_t c = 0; c < kClusterSlots; ++c) {
    const double updates =
        c < nc ? cycles * cl.clusterSize[c] * lts::stepsPerCycle(nc, c) : 0.0;
    const std::string sfx = ".c" + std::to_string(c);
    layers.num("solver.local_ns_per_update" + sfx, updates > 0 ? 1e9 * ops.local[c] / updates : 0.0)
        .num("solver.neighbor_ns_per_update" + sfx,
             updates > 0 ? 1e9 * ops.neighbor[c] / updates : 0.0);
  }
  // Tail: the highest of these percentiles with at least ten cycles beyond it.
  double tailPct = 50.0;
  for (double p : {75.0, 90.0, 95.0, 99.0})
    if (cycles * (1.0 - p / 100.0) >= 10.0) tailPct = p;
  const double updatesPerCycle = static_cast<double>(engine->updatesPerCycle());
  layers.num("solver.cycles", cycles)
      .num("solver.cycle_ms_p50", 1e3 * percentile(ops.cycleSeconds, 50.0))
      .num("solver.cycle_ms_tail", 1e3 * percentile(ops.cycleSeconds, tailPct))
      .num("solver.cycle_tail_pct", tailPct)
      .num("solver.updates_per_s", updatesPerCycle * cycles / ops.run)
      .num("solver.updates_per_cycle", updatesPerCycle)
      .num("solver.flops_per_cycle", static_cast<double>(ops.flops) / cycles);

  layers.num("parallel.setup_s", tr.total("parallel.setup"))
      .num("parallel.messages_per_cycle", comm ? static_cast<double>(dist.messages) / dist.cycles : 0.0)
      .num("parallel.bytes_per_cycle", comm ? static_cast<double>(dist.commBytes) / dist.cycles : 0.0);
  for (int_t r = 0; r < kRankSlots; ++r) {
    const bool has = comm && r < comm->ranks();
    layers.num("parallel.recv_s.r" + std::to_string(r), has ? comm->received[r].seconds : 0.0)
        .num("parallel.send_s.r" + std::to_string(r), has ? comm->sent[r].seconds : 0.0);
  }
  // Share of the two-rank run() beyond the same work on one rank (both on
  // one thread): packing, compression, messaging and halo reads.
  layers.num("parallel.comm_frac", comm ? (dist.run - ops.run) / dist.run : 0.0)
      .num("seismo.setup_s", tr.total("seismo.setup"));
  // Traced vs untraced run(): the timing communicator for two ranks, the
  // op-by-op engine for one.
  const double tracedRun = comm ? dist.run : ops.run;
  layers.num("trace.overhead_frac", (tracedRun - plain.run) / plain.run);

  if (!traceFile.empty()) {
    std::string spans = "[";
    for (std::size_t i = 0; i < tr.spans().size(); ++i) {
      const Span& s = tr.spans()[i];
      spans += (i ? ",\n  " : "\n  ") + Json()
                                            .str("name", s.name)
                                            .num("start_s", s.start)
                                            .num("end_s", s.end)
                                            .num("parent", s.parent)
                                            .dump();
    }
    Json file;
    file.str("workload", wl.name).raw("spans", spans + "\n]");
    for (int_t r = 0; comm && r < comm->ranks(); ++r)
      file.obj("comm.r" + std::to_string(r), Json()
                                                 .obj("send", channelJson(comm->sent[r]))
                                                 .obj("recv", channelJson(comm->received[r])));
    std::ofstream out(traceFile);
    out << file.dump() << '\n';
    if (!out) throw std::runtime_error("cannot write " + traceFile);
  }
  return layers;
}

struct Options {
  std::string workload, reference, traceFile, writeReference;
  std::uint64_t seed = 42;
  bool trace = false;
  bool probe = false;
};

template <typename Real, int W>
Json runWorkload(const Workload& wl, const Options& opt) {
  const bool writing = !opt.writeReference.empty();
  const std::vector<double> laneScale =
      writing ? std::vector<double>(W, 1.0) : laneAmplitudes(opt.seed, W);

  const auto t0 = Clock::now();
  Inputs in = wl.build(laneScale, nullptr);
  const Json meta = metadata(wl, opt.seed, in);
  const std::size_t receivers = in.receivers.size();
  const double endTime = in.endTime;
  const FacadeRun run = runFacade<Real, W>(std::move(in), t0, nullptr, nullptr);
  const double rss = peakRssMb();

  Check check;
  if (writing) {
    writeReference(opt.writeReference, wl.name, run.traces, receivers, endTime);
    check = checkTraces(run.traces, laneScale, nullptr, wl.f32);
  } else if (opt.reference.empty()) {
    check = checkTraces(run.traces, laneScale, nullptr, wl.f32);
    check.fail("no reference traces given");
  } else {
    const auto ref = readReference(opt.reference, receivers);
    check = checkTraces(run.traces, laneScale, &ref, wl.f32);
  }

  Json out;
  out.str("workload", wl.name)
      .num("setup_s", run.setup)
      .num("run_s", run.run)
      .num("time_to_solution_s", run.total)
      .num("sim_s_per_wall_s", W * run.simulated / run.run)
      .num("peak_rss_mb", rss)
      .num("cycles", static_cast<double>(run.cycles))
      .str("digest", run.traces.digestHex())
      .num("worst_sample_err", check.worstSampleErr)
      .num("worst_misfit", check.worstMisfit);
  if (opt.trace) out.obj("layers", tracedRun<Real, W>(wl, laneScale, run, opt.traceFile, check));
  out.raw("ok", check.ok ? "true" : "false").str("detail", check.detail).obj("meta", meta);
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: nglts_bench --workload NAME [--seed N] [--reference FILE] "
               "[--trace FILE]\n"
               "       nglts_bench --workload NAME --write-reference FILE\n"
               "       nglts_bench --probe\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--probe") {
      opt.probe = true;
    } else if (a == "--workload" && hasValue) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && hasValue) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return usage();
    } else if (a == "--reference" && hasValue) {
      opt.reference = argv[++i];
    } else if (a == "--trace" && hasValue) {
      opt.trace = true;
      opt.traceFile = argv[++i];
    } else if (a == "--write-reference" && hasValue) {
      opt.writeReference = argv[++i];
    } else {
      return usage();
    }
  }
  setLogLevel(LogLevel::kWarn);
  try {
    if (opt.probe) {
      std::printf("%s\n", machineProbe().dump().c_str());
      return 0;
    }
    const Workload* wl = nullptr;
    for (const Workload& w : kWorkloads)
      if (opt.workload == w.name) wl = &w;
    if (!wl) return usage();
    Json out;
    if (!wl->f32 && wl->width == 1) out = runWorkload<double, 1>(*wl, opt);
    else if (wl->f32 && wl->width == 1) out = runWorkload<float, 1>(*wl, opt);
    else if (wl->f32 && wl->width == 16) out = runWorkload<float, 16>(*wl, opt);
    else throw std::logic_error("no instantiation for this workload");
    std::printf("%s\n", out.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::printf("%s\n", Json().raw("ok", "false").str("detail", e.what()).dump().c_str());
    return 1;
  }
}
