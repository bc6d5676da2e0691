// The determinism matrix: every rank, thread, transport, payload, input
// element order and small-GEMM backend of a run must reproduce the
// one-rank, one-thread run on the dispatched backend bit for bit. Each row
// names one configuration — scheme, precision, fused width W, mechanisms,
// ranks, partition, executor threads per rank, transport, halo payload,
// whether the elements come in a shuffled order, the kernel backend and
// the operator image (dense or CSR) — and is compared against the reference
// of its (scheme, precision, W, mechanisms, image): every element's LTS
// cluster and DOFs, every receiver lane (times and values) and the work
// counters (cycles, element updates, flops). Each reference runs once per
// test process (`memoized`, solver_fixtures.hpp).
//
// Why no tolerance: the executor cuts each schedule op into static chunks
// and updates every element exactly once with chunk-private scratch; every
// rank runs the same kernels over the same schedule, splitting each op
// around the exchange, and every cross-rank payload carries the values the
// one-rank run reads from its arena (raw 9 x B buffers, or 9 x F face-local
// projections that apply the consumer's own flux product sender-side). The
// arena permutation is a BFS reorder of whatever order the elements come
// in, so a shuffled input changes the memory layout, never the math; its
// rows are compared element by element through the shuffle's id map. The
// backends vectorize only across independent outputs and keep the scalar
// reference's term order and zero skips (docs/KERNELS.md), so the `scalar`
// rows — the reference loops against whatever CPU detection dispatches —
// hold bitwise too. Any drift is a chunking, protocol, payload, ordering or
// kernel bug.
//
// Rows that start rank threads or more than one executor thread form the
// `Concurrent` group (CI runs it under TSan); the rest form `Serial`. The
// per-kernel backend checks (test_kernel_backends) and the subnormal flush
// (test_float_env) keep their own suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <ostream>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "linalg/kernel_backend.hpp"
#include "lts/clustering.hpp"
#include "mesh/geometry.hpp"
#include "parallel/dist_sim.hpp"
#include "partition/dual_graph.hpp"
#include "partition/partitioner.hpp"
#include "partition/reorder.hpp"
#include "solver/setup.hpp"
#include "solver_fixtures.hpp"

namespace ns = nglts::solver;
namespace npar = nglts::parallel;
namespace nsei = nglts::seismo;
namespace npart = nglts::partition;
namespace nl = nglts::linalg;
using nglts::idx_t;
using nglts::int_t;
using namespace nglts::test;

namespace {

constexpr double kEndTime = 0.2;
constexpr idx_t kBoxCells = 4;

enum class Partition { kStripe, kWeighted };
/// kJitter: thread transport over `JitterComm`.
enum class Transport { kSeq, kThread, kJitter };
/// kDispatched: the backend CPU detection picks (every reference's);
/// kScalar: the reference loops.
enum class Backend { kDispatched, kScalar };

struct Row {
  ns::TimeScheme scheme;
  ns::Precision precision;
  int_t width;
  int_t mechanisms;
  int_t ranks;
  Partition partition;
  int_t threads;
  Transport transport;
  bool compressed;
  /// The elements come in a seeded random order instead of the generator's.
  bool shuffled = false;
  Backend backend = Backend::kDispatched;
  /// The fully sparse CSR operator image instead of the dense one.
  bool sparse = false;

  bool concurrent() const { return threads > 1 || transport != Transport::kSeq; }
};

std::string rowName(const Row& r) {
  const char* scheme = r.scheme == ns::TimeScheme::kGts          ? "gts"
                       : r.scheme == ns::TimeScheme::kLtsNextGen ? "lts"
                                                                 : "baseline";
  const char* transport = r.transport == Transport::kSeq      ? "seq"
                          : r.transport == Transport::kThread ? "thread"
                                                              : "jitter";
  return std::string(scheme) + "_" + ns::precisionName(r.precision) + "_w" +
         std::to_string(r.width) + "_m" + std::to_string(r.mechanisms) + "_r" +
         std::to_string(r.ranks) + "_" +
         (r.partition == Partition::kStripe ? "stripe" : "weighted") + "_t" +
         std::to_string(r.threads) + "_" + transport + "_" +
         (r.compressed ? "compressed" : "raw") + (r.shuffled ? "_shuffled" : "") +
         (r.backend == Backend::kScalar ? "_scalar" : "") + (r.sparse ? "_sparse" : "");
}

/// gtest prints a failing row by its name.
void PrintTo(const Row& r, std::ostream* os) { *os << rowName(r); }

std::string testName(const ::testing::TestParamInfo<Row>& info) { return rowName(info.param); }

constexpr auto kGts = ns::TimeScheme::kGts;
constexpr auto kLts = ns::TimeScheme::kLtsNextGen;
constexpr auto kBaseline = ns::TimeScheme::kLtsBaseline;
constexpr auto kF64 = ns::Precision::kF64;
constexpr auto kF32 = ns::Precision::kF32;
constexpr auto kStripe = Partition::kStripe;
constexpr auto kSeq = Transport::kSeq;
constexpr auto kThread = Transport::kThread;
constexpr auto kScalar = Backend::kScalar;

// clang-format off
const Row kRows[] = {
    // scheme x ranks x W on the lockstep transport.
    {kGts,      kF64, 1, 0, 2, kStripe, 1, kSeq, true},
    {kGts,      kF64, 1, 0, 4, kStripe, 1, kSeq, true},
    {kGts,      kF64, 2, 0, 2, kStripe, 1, kSeq, true},
    {kGts,      kF64, 2, 0, 4, kStripe, 1, kSeq, true},
    {kLts,      kF64, 1, 0, 2, kStripe, 1, kSeq, true},
    {kLts,      kF64, 1, 0, 4, kStripe, 1, kSeq, true},
    {kLts,      kF64, 2, 0, 2, kStripe, 1, kSeq, true},
    {kLts,      kF64, 2, 0, 4, kStripe, 1, kSeq, true},
    {kBaseline, kF64, 1, 0, 2, kStripe, 1, kSeq, true},
    {kBaseline, kF64, 1, 0, 4, kStripe, 1, kSeq, true},
    {kBaseline, kF64, 2, 0, 2, kStripe, 1, kSeq, true},
    {kBaseline, kF64, 2, 0, 4, kStripe, 1, kSeq, true},
    // Anelastic payload extension; W = 4 and f32 engines.
    {kLts,      kF64, 1, 3, 2, kStripe, 1, kSeq, true},
    {kLts,      kF64, 4, 0, 2, kStripe, 1, kSeq, true},
    {kLts,      kF32, 4, 0, 2, kStripe, 1, kSeq, true},
    {kLts,      kF32, 4, 0, 4, kStripe, 1, kSeq, true},
    {kLts,      kF32, 1, 0, 4, kStripe, 1, kSeq, true},
    // Raw 9 x B payloads: the consumer applies the same flux product.
    {kLts,      kF64, 1, 0, 3, kStripe, 1, kSeq, false},
    {kLts,      kF64, 1, 3, 3, kStripe, 1, kSeq, false},
    {kGts,      kF64, 1, 0, 3, kStripe, 1, kSeq, false},
    // The weighted dual-graph partition the CLI cuts.
    {kLts,      kF64, 1, 3, 3, Partition::kWeighted, 1, kSeq, true},
    // Executor threads on one rank. The box's clusters hold 192, 32 and 160
    // elements: 3 chunks leave a remainder, 64 chunks leave empty chunks.
    {kLts,      kF64, 1, 0, 1, kStripe, 3, kSeq, true},
    {kGts,      kF64, 1, 0, 1, kStripe, 2, kSeq, true},
    {kGts,      kF64, 1, 0, 1, kStripe, 8, kSeq, true},
    {kGts,      kF64, 2, 0, 1, kStripe, 2, kSeq, true},
    {kGts,      kF64, 2, 0, 1, kStripe, 8, kSeq, true},
    {kLts,      kF64, 1, 0, 1, kStripe, 2, kSeq, true},
    {kLts,      kF64, 1, 0, 1, kStripe, 8, kSeq, true},
    {kLts,      kF64, 2, 0, 1, kStripe, 2, kSeq, true},
    {kLts,      kF64, 2, 0, 1, kStripe, 8, kSeq, true},
    {kBaseline, kF64, 1, 0, 1, kStripe, 2, kSeq, true},
    {kBaseline, kF64, 1, 0, 1, kStripe, 8, kSeq, true},
    {kBaseline, kF64, 2, 0, 1, kStripe, 2, kSeq, true},
    {kBaseline, kF64, 2, 0, 1, kStripe, 8, kSeq, true},
    {kLts,      kF64, 1, 3, 1, kStripe, 8, kSeq, true},
    {kLts,      kF64, 1, 0, 1, kStripe, 64, kSeq, true},
    // Rank threads, alone and with executor teams nested inside them.
    {kLts,      kF64, 1, 0, 4, kStripe, 1, kThread, true},
    {kLts,      kF64, 1, 3, 4, kStripe, 1, kThread, true},
    {kBaseline, kF64, 1, 0, 4, kStripe, 1, kThread, true},
    {kLts,      kF64, 1, 0, 2, kStripe, 2, kThread, true},
    // Adversarial message timing.
    {kLts,      kF64, 1, 0, 4, kStripe, 1, Transport::kJitter, true},
    // Input element order.
    {kGts,      kF64, 1, 0, 1, kStripe, 1, kSeq, true, true},
    {kLts,      kF64, 1, 0, 1, kStripe, 1, kSeq, true, true},
    {kBaseline, kF64, 1, 0, 1, kStripe, 1, kSeq, true, true},
    // The scalar reference kernels against the dispatched ones: every
    // scheme, elastic and anelastic; f32; the fully sparse W = 8 f32 image
    // of the fused ensembles; and the compressed halo payload.
    {kGts,      kF64, 1, 0, 1, kStripe, 1, kSeq, true, false, kScalar},
    {kLts,      kF64, 1, 0, 1, kStripe, 1, kSeq, true, false, kScalar},
    {kBaseline, kF64, 1, 0, 1, kStripe, 1, kSeq, true, false, kScalar},
    {kGts,      kF64, 1, 3, 1, kStripe, 1, kSeq, true, false, kScalar},
    {kLts,      kF64, 1, 3, 1, kStripe, 1, kSeq, true, false, kScalar},
    {kBaseline, kF64, 1, 3, 1, kStripe, 1, kSeq, true, false, kScalar},
    {kLts,      kF32, 1, 3, 1, kStripe, 1, kSeq, true, false, kScalar},
    {kLts,      kF32, 8, 3, 1, kStripe, 1, kSeq, true, false, kScalar, true},
    {kLts,      kF64, 1, 3, 2, kStripe, 1, kSeq, true, false, kScalar},
};
// clang-format on

std::vector<Row> rowsWhere(bool concurrent) {
  std::vector<Row> rows;
  for (const Row& r : kRows)
    if (r.concurrent() == concurrent) rows.push_back(r);
  return rows;
}

// Adversarial wrapper around ThreadComm, injected through
// DistConfig::commFactory: every send carries a per-channel sequence number
// and is forwarded only after a pseudo-random backoff, shuffling the global
// interleaving the exchange observes; every recv verifies its channel's
// sequence number. Zero violations means the engine relies only on the
// per-(src, dst, tag) FIFO the Communicator contract guarantees, never on
// cross-channel ordering or send/compute timing.
class JitterComm final : public npar::Communicator {
 public:
  explicit JitterComm(int_t ranks) : Communicator(ranks), inner_(ranks) {}

  void send(int_t from, int_t to, std::int64_t tag, std::vector<std::uint8_t> data) override {
    std::uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seq = nextSend_[std::make_tuple(from, to, tag)]++;
    }
    std::vector<std::uint8_t> framed(8 + data.size());
    for (int b = 0; b < 8; ++b) framed[b] = static_cast<std::uint8_t>(seq >> (8 * b));
    std::copy(data.begin(), data.end(), framed.begin() + 8);
    // Delay the forward by a payload-dependent amount. Per-channel order is
    // still FIFO (each rank sends from one thread), but the global
    // interleaving across channels and against compute is scrambled.
    std::uint64_t h = (seq * 0x9e3779b97f4a7c15ULL) ^ static_cast<std::uint64_t>(tag);
    h ^= h >> 33;
    for (unsigned y = static_cast<unsigned>(h % 5); y > 0; --y) std::this_thread::yield();
    if (h % 7 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    inner_.send(from, to, tag, std::move(framed));
  }

  std::vector<std::uint8_t> recv(int_t to, int_t from, std::int64_t tag) override {
    auto framed = inner_.recv(to, from, tag);
    if (framed.size() < 8) {
      ++violations_;
      return framed;
    }
    std::uint64_t seq = 0;
    for (int b = 0; b < 8; ++b) seq |= static_cast<std::uint64_t>(framed[b]) << (8 * b);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (seq != nextRecv_[std::make_tuple(from, to, tag)]++) ++violations_;
    }
    return std::vector<std::uint8_t>(framed.begin() + 8, framed.end());
  }

  std::uint64_t bytesSent() const override { return inner_.bytesSent(); }
  std::uint64_t messagesSent() const override { return inner_.messagesSent(); }
  int violations() const { return violations_.load(); }

 private:
  npar::ThreadComm inner_;
  std::mutex mutex_;
  std::map<std::tuple<int_t, int_t, std::int64_t>, std::uint64_t> nextSend_;
  std::map<std::tuple<int_t, int_t, std::int64_t>, std::uint64_t> nextRecv_;
  std::atomic<int> violations_{0};
};

/// What a run leaves behind, independent of its engine type.
struct Outcome {
  std::vector<int_t> cluster;     ///< every element's LTS cluster, by global id
  std::vector<std::uint8_t> dofs; ///< every element's DOF bytes, by global id
  std::size_t dofBytesPerElement = 0;
  std::vector<nsei::Seismogram> traces; ///< receiver 0, one per lane
  npar::DistStats stats;
  /// Cross-rank faces by the remote cluster relative to the consuming one:
  /// {equal, remote smaller, remote larger}.
  std::array<idx_t, 3> crossRankPairs{};
  int fifoViolations = 0;
};

const LayeredBox& box(int_t mechanisms) {
  return memoized(mechanisms, [&] { return makeLayeredBox(mechanisms, kBoxCells); });
}

/// The box in a seeded random element order, and its id map: generator
/// element `e` is element `ids.newId[e]` of the shuffled box.
struct ShuffledBox {
  LayeredBox box;
  npart::Reordering ids;
};

const ShuffledBox& shuffledBox(int_t mechanisms) {
  return memoized(mechanisms, [&] {
    const LayeredBox& b = box(mechanisms);
    const idx_t n = b.mesh.numElements();
    ShuffledBox s;
    s.ids.oldId.resize(n);
    std::iota(s.ids.oldId.begin(), s.ids.oldId.end(), idx_t{0});
    std::shuffle(s.ids.oldId.begin(), s.ids.oldId.end(), std::mt19937(20261017u));
    s.ids.newId.resize(n);
    for (idx_t e = 0; e < n; ++e) s.ids.newId[s.ids.oldId[e]] = e;
    s.ids.numOwned = n;
    s.box.mesh = npart::applyReordering(b.mesh, s.ids);
    for (idx_t e = 0; e < n; ++e) s.box.mats.push_back(b.mats[s.ids.oldId[e]]);
    return s;
  });
}

std::vector<int_t> stripePartition(const nglts::mesh::TetMesh& mesh, int_t parts) {
  std::vector<int_t> p(mesh.numElements());
  for (idx_t e = 0; e < mesh.numElements(); ++e) {
    const int_t s = static_cast<int_t>(mesh.centroid(e)[0] / 1000.0 * parts);
    p[e] = std::min(parts - 1, std::max<int_t>(0, s));
  }
  return p;
}

/// The CLI's weighted cut: the dual graph of the clustering `cfg` resolves.
std::vector<int_t> weightedPartition(const LayeredBox& b, const ns::SimConfig& cfg,
                                     int_t parts) {
  const auto dtCfl = nglts::lts::cflTimeSteps(nglts::mesh::computeGeometry(b.mesh), b.mats,
                                              cfg.order, cfg.cfl);
  const auto graph = nglts::partition::buildPartitionGraph(
      b.mesh, ns::resolveClustering(b.mesh, dtCfl, cfg),
      nglts::partition::PartitionWeighting::kWeighted);
  return nglts::partition::partitionGraph(graph, b.mesh, parts).part;
}

template <typename Real, int W>
Outcome collect(npar::DistributedSimulation<Real, W>& sim, const npar::DistStats& stats,
                const npart::Reordering* shuffle = nullptr) {
  Outcome out;
  out.stats = stats;
  out.dofBytesPerElement = sim.kernels().dofsPerElement() * sizeof(Real);
  const idx_t n = sim.meshRef().numElements();
  out.cluster.resize(n);
  out.dofs.resize(out.dofBytesPerElement * n);
  // Element `e` of the generator order is element `shuffle->newId[e]` of a
  // shuffled run: the outcome is always in generator order.
  const std::vector<int_t>& cluster = sim.clustering().cluster;
  for (idx_t e = 0; e < n; ++e) {
    const idx_t own = shuffle ? shuffle->newId[e] : e;
    out.cluster[e] = cluster[own];
    std::memcpy(out.dofs.data() + out.dofBytesPerElement * e, sim.dofs(own),
                out.dofBytesPerElement);
  }
  out.traces = sim.receiver(0).traces;
  for (int_t r = 0; r < sim.ranks(); ++r) {
    const ns::SolverState<Real, W>& st = sim.state(r);
    for (idx_t el = 0; el < st.numOwned(); ++el)
      for (const nglts::mesh::FaceInfo& fi : st.internalMesh().faces[el]) {
        if (fi.neighbor < 0 || !st.isHalo(fi.neighbor)) continue;
        const int_t cMe = st.clusterOf(el);
        const int_t cNb = st.clusterOf(fi.neighbor);
        ++out.crossRankPairs[cNb == cMe ? 0 : (cNb < cMe ? 1 : 2)];
      }
  }
  return out;
}

/// The Ricker source (lanes scaled differently), the receiver and the
/// Gaussian wave, on any engine.
template <typename Real, int W>
void attachInputs(npar::DistributedSimulation<Real, W>& sim) {
  std::vector<double> laneScale(W);
  for (int w = 0; w < W; ++w) laneScale[w] = 1.0 + 1.5 * w; // lanes must differ
  addStandardSourceAndReceiver(sim, laneScale, /*delay=*/0.5);
  sim.setInitialCondition(layeredWave);
}

ns::SimConfig rowConfig(const Row& row) {
  return layeredConfig(row.scheme, /*numClusters=*/3, row.mechanisms, /*lambda=*/1.0,
                       row.sparse);
}

/// The one-rank, one-thread reference through the single-rank constructor.
template <typename Real, int W>
Outcome runReference(const Row& row) {
  const LayeredBox& b = box(row.mechanisms);
  npar::DistributedSimulation<Real, W> sim(b.mesh, b.mats, rowConfig(row));
  attachInputs(sim);
  const npar::DistStats stats = sim.run(kEndTime);
  return collect(sim, stats);
}

template <typename Real, int W>
Outcome runRow(const Row& row) {
  const LayeredBox& b = row.shuffled ? shuffledBox(row.mechanisms).box : box(row.mechanisms);
  npar::DistConfig dcfg;
  dcfg.sim = rowConfig(row);
  dcfg.sim.numThreads = row.threads;
  if (row.backend == Backend::kScalar) dcfg.sim.kernelBackend = nl::KernelBackend::kScalar;
  dcfg.compressFaces = row.compressed;
  dcfg.transport = row.transport == Transport::kSeq ? npar::Transport::kSeq
                                                    : npar::Transport::kThread;
  JitterComm* jitter = nullptr;
  if (row.transport == Transport::kJitter)
    dcfg.commFactory = [&jitter](int_t ranks) {
      auto comm = std::make_unique<JitterComm>(ranks);
      jitter = comm.get();
      return comm;
    };
  std::vector<int_t> part = row.partition == Partition::kStripe
                                ? stripePartition(b.mesh, row.ranks)
                                : weightedPartition(b, dcfg.sim, row.ranks);
  npar::DistributedSimulation<Real, W> sim(b.mesh, b.mats, std::move(part), dcfg);
  EXPECT_EQ(sim.ranks(), row.ranks);
  attachInputs(sim);
  const npar::DistStats stats = sim.run(kEndTime);
  Outcome out = collect(sim, stats, row.shuffled ? &shuffledBox(row.mechanisms).ids : nullptr);
  if (row.transport == Transport::kJitter)
    out.fifoViolations = jitter ? jitter->violations() : -1;
  return out;
}

/// The reference of `row`'s (scheme, precision, W, mechanisms, image), run
/// on first use and kept for the rest of the process.
const Outcome& reference(const Row& row) {
  const auto key =
      std::make_tuple(row.scheme, row.precision, row.width, row.mechanisms, row.sparse);
  return memoized(key, [&] {
    return ns::dispatchEngineType(row.precision, row.width, [&]<typename Real, int W>() {
      return runReference<Real, W>(row);
    });
  });
}

void expectBitwise(const Outcome& ref, const Outcome& got, int_t lanes) {
  // The clustering must not depend on the layout or the input order, or
  // the runs would step different schedules.
  ASSERT_EQ(got.cluster.size(), ref.cluster.size());
  for (std::size_t e = 0; e < ref.cluster.size(); ++e)
    ASSERT_EQ(got.cluster[e], ref.cluster[e]) << "element " << e << " cluster differs";

  EXPECT_EQ(got.stats.cycles, ref.stats.cycles);
  EXPECT_EQ(got.stats.elementUpdates, ref.stats.elementUpdates);
  EXPECT_EQ(got.stats.flops, ref.stats.flops);

  ASSERT_EQ(got.dofs.size(), ref.dofs.size());
  const std::size_t perElement = ref.dofBytesPerElement;
  for (std::size_t e = 0; e * perElement < ref.dofs.size(); ++e)
    ASSERT_EQ(std::memcmp(ref.dofs.data() + e * perElement, got.dofs.data() + e * perElement,
                          perElement),
              0)
        << "element " << e << " DOFs differ";

  ASSERT_EQ(got.traces.size(), static_cast<std::size_t>(lanes));
  for (int_t lane = 0; lane < lanes; ++lane) {
    const nsei::Seismogram& ta = ref.traces[lane];
    const nsei::Seismogram& tb = got.traces[lane];
    ASSERT_GT(ta.size(), 0u) << "reference recorded nothing";
    ASSERT_EQ(ta.size(), tb.size()) << "lane " << lane;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      ASSERT_EQ(ta.times[i], tb.times[i]) << "lane " << lane << " sample " << i;
      for (int_t v = 0; v < nglts::kElasticVars; ++v)
        ASSERT_EQ(ta.values[i][v], tb.values[i][v])
            << "lane " << lane << " sample " << i << " quantity " << v;
    }
  }
}

} // namespace

class Determinism : public ::testing::TestWithParam<Row> {};

TEST_P(Determinism, BitwiseVsOneRankOneThread) {
  const Row& row = GetParam();
  // Without the vector kernels the dispatched backend is the scalar one,
  // and the row would compare it with itself.
  if (row.backend == Backend::kScalar &&
      nl::resolveKernelBackend(nl::KernelBackend::kAuto) == nl::KernelBackend::kScalar)
    GTEST_SKIP() << "the dispatched backend is the scalar reference on this build/host";
  const Outcome& ref = reference(row);
  const Outcome got = ns::dispatchEngineType(
      row.precision, row.width, [&]<typename Real, int W>() { return runRow<Real, W>(row); });

  if (row.ranks > 1) {
    EXPECT_GT(got.stats.messages, 0u);
    // Every halo branch of the executor's neighbor-data rule is exercised:
    // an LTS run on several ranks has cross-rank faces of all three pairings.
    if (row.scheme != kGts) {
      EXPECT_GT(got.crossRankPairs[0], 0) << "no equal-cluster cross-rank face";
      EXPECT_GT(got.crossRankPairs[1], 0) << "no cross-rank face with a smaller remote cluster";
      EXPECT_GT(got.crossRankPairs[2], 0) << "no cross-rank face with a larger remote cluster";
    }
  }
  EXPECT_EQ(got.fifoViolations, 0);
  expectBitwise(ref, got, row.width);
}

INSTANTIATE_TEST_SUITE_P(Serial, Determinism, ::testing::ValuesIn(rowsWhere(false)), testName);
INSTANTIATE_TEST_SUITE_P(Concurrent, Determinism, ::testing::ValuesIn(rowsWhere(true)), testName);
