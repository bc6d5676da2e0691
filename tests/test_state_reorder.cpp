// The cluster-contiguous solver arena (solver/state.hpp): permutation
// round-trip of the external <-> internal id maps, the cluster-contiguity
// invariant of the internal layout, the neighbor-packing property of
// partition::buildClusterReordering, and input-order invariance: the same
// box fed in generator order and in a shuffled order must step bitwise-
// identical DOFs and receiver traces under gts/lts/baseline (the arena
// permutation, built by a real BFS reorder from two different inputs, must
// never change the math, only the memory layout).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

#include "mesh/box_gen.hpp"
#include "partition/reorder.hpp"
#include "physics/attenuation.hpp"
#include "solver/simulation.hpp"

namespace ns = nglts::solver;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
namespace nsei = nglts::seismo;
namespace npart = nglts::partition;
using nglts::idx_t;
using nglts::int_t;

namespace {

struct Box {
  nm::TetMesh mesh;
  std::vector<np::Material> mats;
};

/// Two-velocity-layer box (miniature LOH-style setting) that yields a
/// genuine multi-cluster clustering.
Box makeBox(idx_t n = 5) {
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[1] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[2] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.jitter = 0.18;
  spec.freeSurfaceTop = true;
  Box box;
  box.mesh = nm::generateBox(spec);
  box.mats.resize(box.mesh.numElements());
  for (idx_t e = 0; e < box.mesh.numElements(); ++e) {
    const auto c = box.mesh.centroid(e);
    const double vs = c[2] > 500.0 ? 400.0 : 1600.0;
    box.mats[e] = np::elasticMaterial(2600.0, vs * std::sqrt(3.0), vs);
  }
  return box;
}

ns::Simulation<double, 1> makeSim(Box box, ns::TimeScheme scheme, int_t numClusters) {
  ns::SimConfig cfg;
  cfg.order = 3;
  cfg.scheme = scheme;
  cfg.numClusters = numClusters;
  return ns::Simulation<double, 1>(std::move(box.mesh), std::move(box.mats), cfg);
}

void addSourceAndReceiver(ns::Simulation<double, 1>& sim) {
  auto stf = std::make_shared<nsei::RickerWavelet>(0.6, 2.0);
  sim.addPointSource(
      nsei::momentTensorSource({510.0, 480.0, 350.0}, {0, 0, 0, 1e9, 0, 0}, stf));
  ASSERT_GE(sim.addReceiver({760.0, 730.0, 930.0}), 0);
}

} // namespace

TEST(StateReorder, PermutationRoundTrip) {
  auto sim = makeSim(makeBox(), ns::TimeScheme::kLtsNextGen, 3);
  const auto& st = sim.state();
  const idx_t n = st.numElements();
  ASSERT_EQ(n, sim.meshRef().numElements());
  std::vector<char> hit(n, 0);
  for (idx_t ext = 0; ext < n; ++ext) {
    const idx_t in = st.toInternal(ext);
    ASSERT_GE(in, 0);
    ASSERT_LT(in, n);
    EXPECT_EQ(st.toExternal(in), ext);
    EXPECT_EQ(hit[in], 0) << "internal slot assigned twice";
    hit[in] = 1;
  }
}

TEST(StateReorder, ClustersAreContiguousRanges) {
  auto sim = makeSim(makeBox(), ns::TimeScheme::kLtsNextGen, 3);
  const auto& st = sim.state();

  // Ranges tile [0, n) and every element inside a range carries its
  // cluster's id.
  idx_t covered = 0;
  for (int_t c = 0; c < st.numClusters(); ++c) {
    EXPECT_EQ(st.clusterBegin(c), covered);
    for (idx_t el = st.clusterBegin(c); el < st.clusterEnd(c); ++el)
      ASSERT_EQ(st.clusterOf(el), c);
    covered = st.clusterEnd(c);
  }
  EXPECT_EQ(covered, st.numElements());

  // Range sizes agree with the clustering (per external cluster ids).
  const auto& clustering = sim.clustering();
  for (int_t c = 0; c < st.numClusters(); ++c)
    EXPECT_EQ(st.clusterEnd(c) - st.clusterBegin(c), clustering.clusterSize[c]);

  // The internal id of every external element lands inside its cluster's
  // range.
  for (idx_t ext = 0; ext < st.numElements(); ++ext) {
    const int_t c = clustering.cluster[ext];
    const idx_t in = st.toInternal(ext);
    EXPECT_GE(in, st.clusterBegin(c));
    EXPECT_LT(in, st.clusterEnd(c));
  }
}

TEST(StateReorder, BfsPacksNeighborsCloserThanStableSort) {
  // The BFS numbering must not do worse than the plain by-cluster stable
  // sort on the mean same-cluster neighbor distance (the quantity the
  // neighbor phase's cache behaviour depends on).
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1.0, 7);
  spec.planes[1] = nm::uniformPlanes(0.0, 1.0, 7);
  spec.planes[2] = nm::uniformPlanes(0.0, 1.0, 7);
  spec.jitter = 0.1;
  auto mesh = nm::generateBox(spec);
  // Synthetic two-cluster split along x.
  std::vector<int_t> cluster(mesh.numElements());
  for (idx_t e = 0; e < mesh.numElements(); ++e)
    cluster[e] = mesh.centroid(e)[0] > 0.5 ? 1 : 0;

  auto meanNeighborDistance = [&](const npart::Reordering& r) {
    double sum = 0.0;
    idx_t count = 0;
    for (idx_t e = 0; e < mesh.numElements(); ++e)
      for (int_t f = 0; f < 4; ++f) {
        const idx_t nb = mesh.faces[e][f].neighbor;
        if (nb < 0 || cluster[nb] != cluster[e]) continue;
        sum += std::abs(static_cast<double>(r.newId[e] - r.newId[nb]));
        ++count;
      }
    return sum / count;
  };

  const idx_t n = mesh.numElements();
  const auto bfs = npart::buildClusterReordering(mesh, cluster);
  npart::Reordering sorted;
  sorted.oldId.resize(n);
  std::iota(sorted.oldId.begin(), sorted.oldId.end(), idx_t{0});
  std::stable_sort(sorted.oldId.begin(), sorted.oldId.end(),
                   [&](idx_t a, idx_t b) { return cluster[a] < cluster[b]; });
  sorted.newId.resize(n);
  for (idx_t e = 0; e < n; ++e) sorted.newId[sorted.oldId[e]] = e;
  EXPECT_LE(meanNeighborDistance(bfs), meanNeighborDistance(sorted));

  // The arena order is cluster-contiguous.
  ASSERT_EQ(bfs.numOwned, n);
  std::vector<int_t> perm(n);
  for (idx_t e = 0; e < n; ++e) perm[e] = cluster[bfs.oldId[e]];
  EXPECT_NO_THROW(npart::clusterRanges(perm, 2));
}

struct InvarianceCase {
  const char* name;
  ns::TimeScheme scheme;
  int_t numClusters;
  double endTime;
  friend void PrintTo(const InvarianceCase& c, std::ostream* os) { *os << c.name; }
};

class StateReorderInputOrder : public ::testing::TestWithParam<InvarianceCase> {};

TEST_P(StateReorderInputOrder, BitwiseIdenticalUnderShuffledInput) {
  const InvarianceCase& tc = GetParam();
  const Box box = makeBox();
  const idx_t n = box.mesh.numElements();

  // The same box in a seeded random element order.
  npart::Reordering shuffle;
  shuffle.oldId.resize(n);
  std::iota(shuffle.oldId.begin(), shuffle.oldId.end(), idx_t{0});
  std::shuffle(shuffle.oldId.begin(), shuffle.oldId.end(), std::mt19937(20261017u));
  shuffle.newId.resize(n);
  for (idx_t e = 0; e < n; ++e) shuffle.newId[shuffle.oldId[e]] = e;
  shuffle.numOwned = n;
  Box shuffled{npart::applyReordering(box.mesh, shuffle), {}};
  for (idx_t e = 0; e < n; ++e) shuffled.mats.push_back(box.mats[shuffle.oldId[e]]);

  auto ref = makeSim(box, tc.scheme, tc.numClusters);
  auto shf = makeSim(std::move(shuffled), tc.scheme, tc.numClusters);

  // The clustering must not depend on the input order, or the two runs
  // would step different schedules.
  for (idx_t e = 0; e < n; ++e)
    ASSERT_EQ(ref.clustering().cluster[e], shf.clustering().cluster[shuffle.newId[e]])
        << "element " << e;

  addSourceAndReceiver(ref);
  addSourceAndReceiver(shf);
  ref.run(tc.endTime);
  shf.run(tc.endTime);

  // DOFs, addressed by external ids mapped through the shuffle, must agree
  // bit for bit: the arena permutation changes the memory layout, never the
  // math.
  for (idx_t e = 0; e < n; ++e) {
    const double* a = ref.dofs(e);
    const double* b = shf.dofs(shuffle.newId[e]);
    for (std::size_t i = 0; i < ref.kernels().dofsPerElement(); ++i)
      ASSERT_EQ(a[i], b[i]) << "element " << e << " dof " << i;
  }

  // Seismograms too (sampled inside element-local steps).
  const auto& ta = ref.receiver(0).traces[0];
  const auto& tb = shf.receiver(0).traces[0];
  ASSERT_EQ(ta.times.size(), tb.times.size());
  ASSERT_GT(ta.times.size(), 0u);
  for (std::size_t i = 0; i < ta.times.size(); ++i) {
    ASSERT_EQ(ta.times[i], tb.times[i]);
    for (int_t v = 0; v < nglts::kElasticVars; ++v)
      ASSERT_EQ(ta.values[i][v], tb.values[i][v]) << "sample " << i << " var " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, StateReorderInputOrder,
    ::testing::Values(InvarianceCase{"gts", ns::TimeScheme::kGts, 1, 0.5},
                      InvarianceCase{"lts", ns::TimeScheme::kLtsNextGen, 3, 0.5},
                      InvarianceCase{"baseline", ns::TimeScheme::kLtsBaseline, 3, 0.3}),
    [](const ::testing::TestParamInfo<InvarianceCase>& info) { return info.param.name; });
