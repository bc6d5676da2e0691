// Kernel microbenchmarks (Sec. IV): per-element throughput of the ADER time
// predictor, the volume + local-surface update and the neighbor update, for
// dense block-trimmed kernels (single simulation) vs fully sparse kernels
// (fused simulations), across convergence orders. The fused sparse path
// removes the zero operations of the dense path — the paper reports 59.8%
// zeros at O = 5 with three mechanisms.
//
// Every benchmark takes a trailing `backend` argument (0 = scalar reference
// backend, 1 = explicit-SIMD vector backend; docs/KERNELS.md), so
// BENCH_kernel.json carries per-backend A/B rows both for the raw
// dispatched small-GEMM kernels (smallGemm* below, including the fused
// W = 4 shapes the backend acceptance gate compares) and for the full ADER
// updates. Both backends produce bitwise-identical results — these rows
// measure throughput only.
//
// The JSON context records the resolved ISA ("kernel_isa"), and each row's
// precision is the <float|double, W> template type in its name, so every
// row is attributable.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "basis/global_matrices.hpp"
#include "kernels/ader_kernels.hpp"
#include "kernels/kernel_setup.hpp"
#include "linalg/small_gemm_dispatch.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/geometry.hpp"
#include "physics/attenuation.hpp"

using namespace nglts;

namespace {

linalg::KernelBackend backendArg(const benchmark::State& state, int idx) {
  return state.range(idx) == 1 ? linalg::KernelBackend::kVector : linalg::KernelBackend::kScalar;
}

struct Fixture {
  mesh::TetMesh mesh;
  std::vector<mesh::ElementGeometry> geo;
  std::vector<physics::Material> mats;
  kernels::OperatorData<float> ed;

  explicit Fixture(int_t mechanisms) {
    mesh::BoxSpec spec;
    spec.planes[0] = mesh::uniformPlanes(0, 1, 3);
    spec.planes[1] = mesh::uniformPlanes(0, 1, 3);
    spec.planes[2] = mesh::uniformPlanes(0, 1, 3);
    spec.periodic = {true, true, true};
    spec.jitter = 0.15;
    mesh = mesh::generateBox(spec);
    geo = mesh::computeGeometry(mesh);
    physics::Material m =
        mechanisms > 0 ? physics::viscoElasticMaterial(2600, 4000, 2000, 120, 40, mechanisms, 1.0)
                       : physics::elasticMaterial(2600, 4000, 2000);
    mats.assign(mesh.numElements(), m);
    ed = kernels::buildAllElementData<float>(mesh, geo, mats, mechanisms);
  }
};

Fixture& fixture(int_t mechs) {
  static Fixture elastic(0);
  static Fixture anelastic(3);
  return mechs ? anelastic : elastic;
}

template <int W>
void localUpdate(benchmark::State& state) {
  const int_t order = state.range(0);
  const bool sparse = state.range(1);
  const int_t mechs = state.range(2);
  auto& f = fixture(mechs);
  kernels::AderKernels<float, W> kern(order, mechs, sparse, f.mats[0].omega,
                                      backendArg(state, 3));
  auto s = kern.makeScratch();
  aligned_vector<float> q(kern.dofsPerElement()), b1(kern.elasticDofsPerElement());
  std::mt19937 rng(1);
  std::uniform_real_distribution<float> uni(-1, 1);
  for (auto& v : q) v = uni(rng);
  std::uint64_t flops = 0;
  for (auto _ : state) {
    flops += kern.timePredict(f.ed[0], q.data(), 1e-3f, s.timeInt.data(), b1.data(), nullptr,
                              nullptr, false, s);
    flops += kern.volumeAndLocalSurface(f.ed[0], s.timeInt.data(), q.data(), s);
    benchmark::DoNotOptimize(q.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(static_cast<double>(flops) * 1e-9,
                                                benchmark::Counter::kIsRate);
  state.counters["el_updates/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * W,
                         benchmark::Counter::kIsRate);
}

template <int W>
void neighborUpdate(benchmark::State& state) {
  const int_t order = state.range(0);
  const bool sparse = state.range(1);
  auto& f = fixture(3);
  kernels::AderKernels<float, W> kern(order, 3, sparse, f.mats[0].omega,
                                      backendArg(state, 2));
  auto s = kern.makeScratch();
  aligned_vector<float> q(kern.dofsPerElement()), nb(kern.elasticDofsPerElement());
  std::mt19937 rng(2);
  std::uniform_real_distribution<float> uni(-1, 1);
  for (auto& v : nb) v = uni(rng);
  const auto& fi = f.mesh.faces[0][0];
  for (auto _ : state) {
    kern.neighborContribution(f.ed[0], 0, fi.neighborFace, fi.perm, nb.data(), q.data(), s);
    benchmark::DoNotOptimize(q.data());
  }
}

void compress(benchmark::State& state) {
  const int_t order = state.range(0);
  auto& f = fixture(3);
  kernels::AderKernels<float, 1> kern(order, 3, false, f.mats[0].omega, backendArg(state, 1));
  aligned_vector<float> buf(kern.elasticDofsPerElement(), 0.5f), out(kern.faceDataSize());
  for (auto _ : state) {
    kern.compressBuffer(0, 0, buf.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}

// ---------------------------------------------------------------------------
// Raw dispatched small-GEMM kernels, scalar vs vector backend A/B: the two
// operator shapes at the real DG operand shapes — the star shape over an
// element's compact elastic star block (24 of 81 entries, the fixed
// Jacobian pattern) and over a dense flux solver (the full 9 x 9 pattern),
// and the right shape in dense and CSR form over the order's stiffness
// operator (B x B, modal sparsity). The W = 4 rows of smallGemmRight{Dense,
// Csr} are the backend acceptance gate (vector >= 1.3x scalar,
// docs/KERNELS.md).
// ---------------------------------------------------------------------------

template <typename Real>
aligned_vector<Real> randomOperand(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<Real> uni(-1, 1);
  aligned_vector<Real> v(n);
  for (auto& x : v) x = uni(rng);
  return v;
}

/// One star product per iteration: `values` in `pattern` applied to a
/// 9 x nb x W operand.
template <typename Real, int W>
void runStar(benchmark::State& state, const linalg::StarPattern& pattern, const Real* values,
             unsigned seed) {
  const int_t nb = numBasis3d(state.range(0));
  const auto& ops = linalg::smallGemmOps<Real, W>(backendArg(state, 1));
  const auto d = randomOperand<Real>(static_cast<std::size_t>(9) * nb * W, seed);
  aligned_vector<Real> o(d.size(), Real(0));
  std::uint64_t flops = 0;
  for (auto _ : state) {
    flops += ops.star(pattern, values, nb, nb, d.data(), o.data());
    benchmark::DoNotOptimize(o.data());
  }
  state.counters["GFLOPS"] =
      benchmark::Counter(static_cast<double>(flops) * 1e-9, benchmark::Counter::kIsRate);
}

// The raw smallGemm* benches are Real-templated: the <float, W> vs
// <double, W> registrations at matching W are the fp32-vs-f64 throughput
// A/B (per-row precision is the template type in the benchmark name).
template <typename Real, int W>
void smallGemmStar(benchmark::State& state) {
  const auto ed = kernels::buildElementData<Real>(fixture(3).mesh, fixture(3).geo,
                                                  fixture(3).mats, 0, 3);
  runStar<Real, W>(state, kernels::starEPattern(), ed[0].elastic->starE[0].data(), 21);
}

template <typename Real, int W>
void smallGemmStarFull(benchmark::State& state) {
  const auto ed = kernels::buildElementData<Real>(fixture(3).mesh, fixture(3).geo,
                                                  fixture(3).mats, 0, 3);
  runStar<Real, W>(state, linalg::densePattern(9, 9), ed[0].elastic->fluxSolveE[0].data(), 22);
}

template <typename Real, int W>
void smallGemmRightDense(benchmark::State& state) {
  const int_t order = state.range(0);
  const int_t nb = numBasis3d(order);
  const auto& ops = linalg::smallGemmOps<Real, W>(backendArg(state, 1));
  const auto gm = basis::buildGlobalMatrices(order);
  const linalg::SmallOp<Real> stiff(gm->kXi[0]);
  const auto d = randomOperand<Real>(static_cast<std::size_t>(9) * nb * W, 23);
  aligned_vector<Real> o(d.size(), Real(0));
  std::uint64_t flops = 0;
  for (auto _ : state) {
    flops += ops.rightDense(9, nb, nb, stiff.cols, d.data(), stiff.dense.data(), o.data(), nb,
                            nb);
    benchmark::DoNotOptimize(o.data());
  }
  state.counters["GFLOPS"] =
      benchmark::Counter(static_cast<double>(flops) * 1e-9, benchmark::Counter::kIsRate);
}

template <typename Real, int W>
void smallGemmRightCsr(benchmark::State& state) {
  const int_t order = state.range(0);
  const int_t nb = numBasis3d(order);
  const auto& ops = linalg::smallGemmOps<Real, W>(backendArg(state, 1));
  const auto gm = basis::buildGlobalMatrices(order);
  const linalg::SmallOp<Real> stiff(gm->kXi[0]);
  const auto d = randomOperand<Real>(static_cast<std::size_t>(9) * nb * W, 24);
  aligned_vector<Real> o(d.size(), Real(0));
  std::uint64_t flops = 0;
  for (auto _ : state) {
    flops += ops.rightCsr(9, nb, stiff.csr, d.data(), o.data(), nb, nb);
    benchmark::DoNotOptimize(o.data());
  }
  state.counters["GFLOPS"] =
      benchmark::Counter(static_cast<double>(flops) * 1e-9, benchmark::Counter::kIsRate);
}

} // namespace

BENCHMARK(localUpdate<1>)
    ->ArgsProduct({{3, 4, 5}, {0, 1}, {0, 3}, {0, 1}})
    ->ArgNames({"order", "sparse", "mechs", "backend"});
BENCHMARK(localUpdate<16>)
    ->ArgsProduct({{3, 4, 5}, {1}, {3}, {0, 1}})
    ->ArgNames({"order", "sparse", "mechs", "backend"});
BENCHMARK(neighborUpdate<1>)
    ->ArgsProduct({{3, 4, 5}, {0, 1}, {0, 1}})
    ->ArgNames({"order", "sparse", "backend"});
BENCHMARK(neighborUpdate<16>)
    ->ArgsProduct({{4}, {1}, {0, 1}})
    ->ArgNames({"order", "sparse", "backend"});
BENCHMARK(compress)->ArgsProduct({{4, 5}, {0, 1}})->ArgNames({"order", "backend"});

// Raw small-GEMM backend A/B rows (scalar vs vector per shape; the W = 4
// right dense + CSR rows are the acceptance gate for the vector backend, the
// <double, 1> star and right dense rows are the shapes loh3_lts runs, and the
// <double, W> vs <float, W> pairs are the fp32-vs-f64 throughput A/B).
BENCHMARK_TEMPLATE(smallGemmStar, float, 1)
    ->ArgsProduct({{4, 5}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmStar, double, 1)
    ->ArgsProduct({{4, 5}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmStar, float, 4)
    ->ArgsProduct({{4, 5}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmStar, float, 16)
    ->ArgsProduct({{4}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmStar, double, 4)
    ->ArgsProduct({{4}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmStarFull, float, 1)
    ->ArgsProduct({{4, 5}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmStarFull, double, 1)
    ->ArgsProduct({{4, 5}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmStarFull, float, 4)
    ->ArgsProduct({{4, 5}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmStarFull, float, 16)
    ->ArgsProduct({{4}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmStarFull, double, 4)
    ->ArgsProduct({{4}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmRightDense, float, 1)
    ->ArgsProduct({{4, 5}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmRightDense, double, 1)
    ->ArgsProduct({{4, 5}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmRightDense, float, 4)
    ->ArgsProduct({{4, 5}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmRightDense, double, 4)
    ->ArgsProduct({{4}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmRightCsr, float, 1)
    ->ArgsProduct({{4, 5}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmRightCsr, float, 4)
    ->ArgsProduct({{4, 5}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmRightCsr, float, 16)
    ->ArgsProduct({{4}, {0, 1}})
    ->ArgNames({"order", "backend"});
BENCHMARK_TEMPLATE(smallGemmRightCsr, double, 4)
    ->ArgsProduct({{4}, {0, 1}})
    ->ArgNames({"order", "backend"});

// BENCHMARK_MAIN with a default JSON artifact: unless the caller passes its
// own --benchmark_out, results also land in BENCH_kernel.json (the
// machine-readable perf trajectory consumed by bench/run_benches.sh).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool hasOut = false, hasFmt = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--benchmark_out=", 0) == 0) hasOut = true;
    if (a.rfind("--benchmark_out_format", 0) == 0) hasFmt = true;
  }
  static std::string outFlag = "--benchmark_out=BENCH_kernel.json";
  static std::string fmtFlag = "--benchmark_out_format=json";
  if (!hasOut) {
    args.push_back(outFlag.data());
    if (!hasFmt) args.push_back(fmtFlag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  // Attribution context: the ISA the vector kernels resolve to
  // on this host (per-row precision is the <float|double, W> template type
  // in each benchmark name).
  benchmark::AddCustomContext("kernel_isa", linalg::detectCpuSimd().isa);
  benchmark::AddCustomContext(
      "kernel_backend_vector",
      linalg::resolvedKernelBackendLabel(linalg::KernelBackend::kAuto));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!hasOut) std::printf("wrote BENCH_kernel.json\n");
  return 0;
}
