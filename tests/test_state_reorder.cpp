// The cluster-contiguous solver arena (solver/state.hpp): permutation
// round-trip of the external <-> internal id maps, the cluster-contiguity
// invariant of the internal layout and the neighbor-packing property of
// partition::buildClusterReordering. That the arena permutation never
// changes the math, only the memory layout, is a row group of the
// determinism matrix (test_determinism, `Shuffled/`): the same box fed in a
// shuffled element order steps bitwise-identical DOFs and receiver traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mesh/box_gen.hpp"
#include "partition/reorder.hpp"
#include "solver_fixtures.hpp"

namespace ns = nglts::solver;
namespace nm = nglts::mesh;
namespace npart = nglts::partition;
using nglts::idx_t;
using nglts::int_t;
using namespace nglts::test;

namespace {

/// The shared layered box (solver_fixtures.hpp) in 3 LTS clusters.
ns::Simulation<double, 1> makeLtsSim() {
  return makeLayeredSim<double, 1>(ns::TimeScheme::kLtsNextGen, 3, 0);
}

} // namespace

TEST(StateReorder, PermutationRoundTrip) {
  auto sim = makeLtsSim();
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
  auto sim = makeLtsSim();
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
