#include <gtest/gtest.h>

#include <cmath>

#include "lts/clustering.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/geometry.hpp"
#include "partition/dual_graph.hpp"
#include "partition/partitioner.hpp"
#include "physics/attenuation.hpp"

namespace npart = nglts::partition;
namespace nm = nglts::mesh;
namespace nl = nglts::lts;
namespace np = nglts::physics;
using nglts::idx_t;
using nglts::int_t;

namespace {

struct Fixture {
  nm::TetMesh mesh;
  nl::Clustering clustering;
};

Fixture makeFixture(idx_t n = 8, int_t nc = 3) {
  Fixture f;
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[1] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[2] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.jitter = 0.2;
  f.mesh = nm::generateBox(spec);
  const auto geo = nm::computeGeometry(f.mesh);
  std::vector<np::Material> mats(f.mesh.numElements());
  for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
    const auto c = f.mesh.centroid(e);
    const double vs = 400.0 + 3.0 * c[2];
    mats[e] = np::elasticMaterial(2600.0, vs * std::sqrt(3.0), vs);
  }
  const auto dt = nl::cflTimeSteps(geo, mats, 4);
  f.clustering = nl::buildClustering(f.mesh, dt, nc, 1.0);
  return f;
}

npart::DualGraph weightedGraph(const Fixture& f) {
  return npart::buildPartitionGraph(f.mesh, f.clustering, npart::PartitionWeighting::kWeighted);
}

} // namespace

TEST(DualGraph, StructureMatchesMesh) {
  const Fixture f = makeFixture(4);
  const auto g = weightedGraph(f);
  ASSERT_EQ(g.numVertices, f.mesh.numElements());
  for (idx_t e = 0; e < g.numVertices; ++e) {
    idx_t interior = 0;
    for (int_t fc = 0; fc < 4; ++fc)
      if (f.mesh.faces[e][fc].neighbor >= 0) ++interior;
    EXPECT_EQ(g.adjPtr[e + 1] - g.adjPtr[e], interior);
  }
}

TEST(DualGraph, EdgeWeightsAreDatasetsPerCycle) {
  // A face ships B1 once per own step to an equal neighbor, B2 and B1 - B2
  // per own step to a larger one and B3 once per two steps to a smaller one.
  const Fixture f = makeFixture(4);
  const auto g = weightedGraph(f);
  const int_t nc = f.clustering.numClusters;
  idx_t crossCluster = 0;
  for (idx_t e = 0; e < g.numVertices; ++e)
    for (idx_t i = g.adjPtr[e]; i < g.adjPtr[e + 1]; ++i) {
      const int_t me = f.clustering.cluster[e];
      const int_t nb = f.clustering.cluster[g.adjList[i]];
      const double steps = static_cast<double>(idx_t{1} << (nc - 1 - me));
      const double expect = nb == me ? steps : (nb > me ? 2.0 * steps : steps / 2.0);
      EXPECT_DOUBLE_EQ(g.edgeWeight[i], expect) << "element " << e;
      if (nb != me) ++crossCluster;
    }
  EXPECT_GT(crossCluster, 0); // the fixture exercises all three cases
}

TEST(DualGraph, UniformVariant) {
  const Fixture f = makeFixture(3);
  const auto g =
      npart::buildPartitionGraph(f.mesh, f.clustering, npart::PartitionWeighting::kUnweighted);
  for (double w : g.vertexWeight) EXPECT_DOUBLE_EQ(w, 1.0);
  for (double w : g.edgeWeight) EXPECT_DOUBLE_EQ(w, 1.0);
}

class PartitionP : public ::testing::TestWithParam<int_t> {};

TEST_P(PartitionP, CoversAllElementsAndBalances) {
  const int_t parts = GetParam();
  const Fixture f = makeFixture(8);
  const auto g = weightedGraph(f);
  const auto res = npart::partitionGraph(g, f.mesh, parts);
  ASSERT_EQ(res.numParts, parts);
  idx_t total = 0;
  for (idx_t c : res.elements) {
    EXPECT_GT(c, 0);
    total += c;
  }
  EXPECT_EQ(total, f.mesh.numElements());
  // Weighted load balance within ~10%.
  EXPECT_LT(res.imbalance, 1.10);
}

TEST_P(PartitionP, CutIsLocal) {
  // The weighted cut must be far below the total edge weight (a random
  // partition would cut ~ (parts-1)/parts of it).
  const int_t parts = GetParam();
  if (parts == 1) return;
  const Fixture f = makeFixture(8);
  const auto g = weightedGraph(f);
  const auto res = npart::partitionGraph(g, f.mesh, parts);
  double totalEdge = 0.0;
  for (double w : g.edgeWeight) totalEdge += w;
  totalEdge *= 0.5;
  EXPECT_LT(res.edgeCut, 0.35 * totalEdge);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, PartitionP, ::testing::Values(1, 2, 4, 8, 16));

TEST(Partition, LtsWeightsCauseElementImbalance) {
  // Fig. 7's observation: balancing *weighted* load makes partitions with
  // many large-time-step elements hold more elements in total.
  const Fixture f = makeFixture(10);
  const auto g = weightedGraph(f);
  const auto res = npart::partitionGraph(g, f.mesh, 8);
  EXPECT_GT(res.elementSpread(), 1.05);
}

TEST(Partition, ClusterHistogramSums) {
  const Fixture f = makeFixture(6);
  const auto g = weightedGraph(f);
  const auto res = npart::partitionGraph(g, f.mesh, 4);
  const auto hist = npart::clusterHistogram(res, f.clustering.cluster, f.clustering.numClusters);
  for (int_t p = 0; p < 4; ++p) {
    idx_t s = 0;
    for (idx_t c : hist[p]) s += c;
    EXPECT_EQ(s, res.elements[p]);
  }
}
