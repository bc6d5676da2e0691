// Property and golden suite of the cluster-weighted partitioner (ISSUE 9).
// The LTS cost model (update frequency 2^(Nc-1-cluster) times a face-flux
// share, dual_graph.hpp) is what `--partition weighted` balances; these
// tests pin the weighting formula, the partition cover/assignment
// invariants, the degenerate cases (1 rank, empty cluster, all-one-cluster)
// and — on skewed synthetic cluster distributions — that the weighted
// partition is never worse than the unweighted one under the weighted
// imbalance metric. A golden partition on the fixed seed mesh guards the
// whole deterministic chain (mesh gen -> weights -> seeds -> growth ->
// refinement) against silent drift.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "lts/schedule.hpp"
#include "mesh/box_gen.hpp"
#include "partition/dual_graph.hpp"
#include "partition/partitioner.hpp"
#include "partition/weighting.hpp"

namespace npart = nglts::partition;
namespace nm = nglts::mesh;
namespace nlts = nglts::lts;
using nglts::idx_t;
using nglts::int_t;

namespace {

/// Fixed seed mesh: the same deterministic jittered box the solver test
/// fixtures use (box_gen is seed-stable, so element ids and adjacency are
/// reproducible across runs and platforms).
nm::TetMesh makeMesh(idx_t n = 6) {
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[1] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[2] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.jitter = 0.18;
  spec.freeSurfaceTop = true;
  return nm::generateBox(spec);
}

/// Synthetic clustering: only `numClusters` and the per-element cluster ids
/// matter to the dual-graph weights, so skewed distributions can be
/// constructed directly instead of through the CFL/clustering pipeline.
nlts::Clustering makeClustering(const nm::TetMesh& mesh, int_t numClusters,
                                int_t (*rule)(const std::array<double, 3>&, int_t)) {
  nlts::Clustering cl;
  cl.numClusters = numClusters;
  cl.cluster.resize(mesh.numElements());
  cl.clusterSize.assign(numClusters, 0);
  for (idx_t e = 0; e < mesh.numElements(); ++e) {
    cl.cluster[e] = rule(mesh.centroid(e), numClusters);
    ++cl.clusterSize[cl.cluster[e]];
  }
  return cl;
}

// Skewed synthetic cluster rules: a small fast region makes element-count
// balance and work balance disagree — the regime weighted partitioning is
// for.
int_t thinSlabRule(const std::array<double, 3>& x, int_t nc) {
  if (x[2] < 150.0) return 0;               // thin fast slab at the bottom
  return std::min<int_t>(nc - 1, 1 + static_cast<int_t>(x[2] / 400.0));
}
int_t cornerBallRule(const std::array<double, 3>& x, int_t nc) {
  const double r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
  if (r2 < 300.0 * 300.0) return 0;         // fast ball in one corner
  if (r2 < 550.0 * 550.0) return std::min<int_t>(nc - 1, 1);
  return nc - 1;
}
int_t gradientRule(const std::array<double, 3>& x, int_t nc) {
  return std::min<int_t>(nc - 1, static_cast<int_t>(x[0] / (1000.0 / nc)));
}
int_t uniformRule(const std::array<double, 3>&, int_t) { return 0; }

/// FNV-1a over the assignment vector — the golden partition fingerprint.
std::uint64_t partHash(const std::vector<int_t>& part) {
  std::uint64_t h = 1469598103934665603ULL;
  for (int_t p : part) {
    h ^= static_cast<std::uint64_t>(p);
    h *= 1099511628211ULL;
  }
  return h;
}

void expectAssignedExactlyOnce(const npart::PartitionResult& parts, idx_t n) {
  ASSERT_EQ(parts.part.size(), static_cast<std::size_t>(n));
  std::vector<idx_t> count(parts.numParts, 0);
  for (idx_t e = 0; e < n; ++e) {
    ASSERT_GE(parts.part[e], 0) << "element " << e << " unassigned";
    ASSERT_LT(parts.part[e], parts.numParts) << "element " << e;
    ++count[parts.part[e]];
  }
  idx_t total = 0;
  for (int_t p = 0; p < parts.numParts; ++p) {
    EXPECT_EQ(count[p], parts.elements[p]) << "part " << p << " count drifted";
    total += count[p];
  }
  EXPECT_EQ(total, n);
}

} // namespace

TEST(WeightedPartition, FaceFluxVertexWeightFormulaIsPinned) {
  const nm::TetMesh mesh = makeMesh(4);
  const auto cl = makeClustering(mesh, 3, thinSlabRule);
  const auto g = npart::buildPartitionGraph(mesh, cl, npart::PartitionWeighting::kWeighted);
  ASSERT_EQ(g.numVertices, mesh.numElements());
  for (idx_t e = 0; e < g.numVertices; ++e) {
    int_t interior = 0;
    for (int_t f = 0; f < 4; ++f)
      if (mesh.faces[e][f].neighbor >= 0) ++interior;
    const double updates =
        static_cast<double>(nlts::stepsPerCycle(cl.numClusters, cl.cluster[e]));
    const double expect =
        updates * (npart::kAderCostShare + npart::kFaceFluxCostShare * interior / 4.0);
    ASSERT_DOUBLE_EQ(g.vertexWeight[e], expect) << "element " << e;
  }
  // The unweighted graph really is unweighted.
  const auto u = npart::buildPartitionGraph(mesh, cl, npart::PartitionWeighting::kUnweighted);
  for (idx_t e = 0; e < u.numVertices; ++e) ASSERT_EQ(u.vertexWeight[e], 1.0);
}

TEST(WeightedPartition, EveryElementAssignedExactlyOnce) {
  const nm::TetMesh mesh = makeMesh();
  const auto cl = makeClustering(mesh, 4, thinSlabRule);
  const auto g = npart::buildPartitionGraph(mesh, cl, npart::PartitionWeighting::kWeighted);
  for (int_t parts : {1, 2, 4, 8}) {
    const auto p = npart::partitionGraph(g, mesh, parts);
    expectAssignedExactlyOnce(p, mesh.numElements());
  }
}

TEST(WeightedPartition, NeverWorseThanUnweightedOnSkewedClusters) {
  // On skewed synthetic cluster distributions, the weighted partition's
  // imbalance under the weighted (LTS work) metric must never exceed the
  // unweighted partition's — that metric is exactly what it balances. Both
  // partitions are scored with `measureImbalance` on the *same* weighted
  // graph; the fixture set is deterministic, so this is a pinned property,
  // not a flaky benchmark.
  const nm::TetMesh mesh = makeMesh();
  struct Case {
    const char* name;
    int_t numClusters;
    int_t (*rule)(const std::array<double, 3>&, int_t);
  };
  const Case cases[] = {{"thinSlab", 4, thinSlabRule},
                        {"cornerBall", 3, cornerBallRule},
                        {"gradient", 5, gradientRule}};
  for (const Case& c : cases) {
    const auto cl = makeClustering(mesh, c.numClusters, c.rule);
    const auto gw = npart::buildPartitionGraph(mesh, cl, npart::PartitionWeighting::kWeighted);
    const auto gu =
        npart::buildPartitionGraph(mesh, cl, npart::PartitionWeighting::kUnweighted);
    for (int_t parts : {2, 4, 8}) {
      const auto pw = npart::partitionGraph(gw, mesh, parts);
      const auto pu = npart::partitionGraph(gu, mesh, parts);
      const double iw = npart::measureImbalance(gw, pw.part, parts);
      const double iu = npart::measureImbalance(gw, pu.part, parts);
      EXPECT_LE(iw, iu + 1e-12) << c.name << " parts=" << parts;
      // And the partitioner's own imbalance agrees with the re-measurement.
      EXPECT_NEAR(pw.imbalance, iw, 1e-9) << c.name << " parts=" << parts;
    }
  }
}

TEST(WeightedPartition, DegenerateOneRank) {
  const nm::TetMesh mesh = makeMesh(3);
  const auto cl = makeClustering(mesh, 3, thinSlabRule);
  const auto g = npart::buildPartitionGraph(mesh, cl, npart::PartitionWeighting::kWeighted);
  const auto p = npart::partitionGraph(g, mesh, 1);
  expectAssignedExactlyOnce(p, mesh.numElements());
  EXPECT_EQ(p.imbalance, 1.0);
  EXPECT_EQ(npart::measureImbalance(g, p.part, 1), 1.0);
}

TEST(WeightedPartition, DegenerateEmptyCluster) {
  // A cluster id range with a hole (no element in cluster 1): weights stay
  // finite and positive, and the partition still covers everything.
  const nm::TetMesh mesh = makeMesh(3);
  nlts::Clustering cl;
  cl.numClusters = 4;
  cl.cluster.assign(mesh.numElements(), 0);
  for (idx_t e = 0; e < mesh.numElements(); ++e)
    cl.cluster[e] = mesh.centroid(e)[2] > 500.0 ? 3 : 2; // clusters 0,1 empty
  const auto g = npart::buildPartitionGraph(mesh, cl, npart::PartitionWeighting::kWeighted);
  for (idx_t e = 0; e < g.numVertices; ++e) {
    ASSERT_GT(g.vertexWeight[e], 0.0);
    ASSERT_TRUE(std::isfinite(g.vertexWeight[e]));
  }
  const auto p = npart::partitionGraph(g, mesh, 3);
  expectAssignedExactlyOnce(p, mesh.numElements());
}

TEST(WeightedPartition, DegenerateAllOneCluster) {
  // GTS-like: every element in cluster 0 of 1. The update-frequency factor
  // collapses to 1, so weighted only differs from unweighted by the
  // face-flux surface discount — both must produce near-balanced partitions.
  const nm::TetMesh mesh = makeMesh();
  const auto cl = makeClustering(mesh, 1, uniformRule);
  const auto gw = npart::buildPartitionGraph(mesh, cl, npart::PartitionWeighting::kWeighted);
  const auto gu = npart::buildPartitionGraph(mesh, cl, npart::PartitionWeighting::kUnweighted);
  for (idx_t e = 0; e < gw.numVertices; ++e) {
    ASSERT_GE(gw.vertexWeight[e], npart::kAderCostShare); // >= zero-face floor
    ASSERT_LE(gw.vertexWeight[e], 1.0);                   // <= 4-face interior
  }
  for (int_t parts : {2, 4}) {
    const auto pw = npart::partitionGraph(gw, mesh, parts);
    const auto pu = npart::partitionGraph(gu, mesh, parts);
    expectAssignedExactlyOnce(pw, mesh.numElements());
    EXPECT_LT(pw.imbalance, 1.10);
    EXPECT_LT(pu.imbalance, 1.10);
  }
}

TEST(WeightedPartition, GoldenPinnedPartitionOnFixedSeedMesh) {
  // Full determinism guard: the fixed seed mesh + thinSlab clustering + the
  // weighted graph must reproduce this exact partition (assignment hash and
  // per-part element counts). A change here means the mesh generator, the
  // weighting formula, or the partitioner heuristics changed — all of which
  // move the Fig. 7 values PaperFig7 (tests/test_paper.cpp) pins and must be
  // deliberate.
  const nm::TetMesh mesh = makeMesh(4);
  const auto cl = makeClustering(mesh, 3, thinSlabRule);
  const auto g = npart::buildPartitionGraph(mesh, cl, npart::PartitionWeighting::kWeighted);
  const auto p = npart::partitionGraph(g, mesh, 4);
  expectAssignedExactlyOnce(p, mesh.numElements());

  // Golden values recorded from the pinned implementation. Note the spread
  // in element counts (120 vs 61): parts holding slow-cluster elements take
  // nearly twice as many of them — the Fig. 7 signature of weighted balance.
  const std::uint64_t kGoldenHash = UINT64_C(16081829665784405367);
  const std::vector<idx_t> kGoldenElements = {120, 123, 80, 61};
  EXPECT_EQ(partHash(p.part), kGoldenHash);
  ASSERT_EQ(p.elements.size(), kGoldenElements.size());
  for (std::size_t i = 0; i < kGoldenElements.size(); ++i)
    EXPECT_EQ(p.elements[i], kGoldenElements[i]) << "part " << i;
}
