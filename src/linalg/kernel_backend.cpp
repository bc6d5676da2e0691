#include "linalg/kernel_backend.hpp"

#include <stdexcept>

#include "linalg/small_gemm_dispatch.hpp"
#include "linalg/small_gemm_vector.hpp"

namespace nglts::linalg {

namespace {

CpuSimd detectCpuSimdImpl() {
  CpuSimd s;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  s.sse2 = __builtin_cpu_supports("sse2");
  s.avx = __builtin_cpu_supports("avx");
  s.avx2 = __builtin_cpu_supports("avx2");
  s.avx512f = __builtin_cpu_supports("avx512f");
#elif defined(__aarch64__)
  s.neon = true;  // AdvSIMD is architectural on AArch64
#endif
  s.isa = s.avx512f ? "avx512f"
          : s.avx2  ? "avx2"
          : s.avx   ? "avx"
          : s.sse2  ? "sse2"
          : s.neon  ? "neon"
                    : "none";
  return s;
}

template <typename Real, int W>
constexpr SmallGemmOps<Real, W> kScalarOps = {
    &starMul<Real, W>, &rightMulDense<Real, W>, &rightMulCsr<Real, W>,
    &axpyBlock<Real>,  KernelBackend::kScalar,  "none",
};

#if NGLTS_HAVE_VECTOR_KERNELS

// ---------------------------------------------------------------------------
// The ISA clone set of the vector backend. Each variant stamps the
// `VecKernels` bodies (small_gemm_vector.hpp) at one vector width into four
// entry points compiled under one target attribute, and carries its ISA
// name. `runnableVectorTables` lists the variants the host runs, widest
// first; the first one dispatches and names the label. A new clone is one
// `NGLTS_VECTOR_VARIANT` here plus its line in that list.
// ---------------------------------------------------------------------------

#define NGLTS_VECTOR_VARIANT(Name, Target, Bytes, Isa)                                             \
  template <typename Real, int W>                                                                  \
  struct Name {                                                                                    \
    static_assert(W > 0 && (W & (W - 1)) == 0, "vector kernels need a power-of-two width");        \
    using K = vecdetail::VecKernels<Real, W, Bytes>;                                               \
    Target static std::uint64_t star(const StarPattern& p, const Real* a, int_t nCols,             \
                                     int_t ld, const Real* d, Real* o) {                           \
      return K::star(p, a, nCols, ld, d, o);                                                       \
    }                                                                                              \
    Target static std::uint64_t rightDense(int_t nVars, int_t kEff, int_t nEff, int_t ldb,         \
                                           const Real* d, const Real* b, Real* o, int_t ldd,       \
                                           int_t ldo) {                                            \
      return K::rightDense(nVars, kEff, nEff, ldb, d, b, o, ldd, ldo);                             \
    }                                                                                              \
    /* W = 1 CSR is a scatter with nothing to keep in registers: scalar. */                        \
    Target static std::uint64_t rightCsr(int_t nVars, int_t kEff, const Csr<Real>& b,              \
                                         const Real* d, Real* o, int_t ldd, int_t ldo) {           \
      if constexpr (W == 1)                                                                        \
        return rightMulCsr<Real, 1>(nVars, kEff, b, d, o, ldd, ldo);                               \
      else                                                                                         \
        return K::rightCsr(nVars, kEff, b, d, o, ldd, ldo);                                        \
    }                                                                                              \
    /* Elementwise, so one per Real: every W points at the W = 1 copy. */                          \
    Target static void axpy(Real s, const Real* src, Real* dst, std::size_t n) {                   \
      K::axpy(s, src, dst, n);                                                                     \
    }                                                                                              \
    static constexpr SmallGemmOps<Real, W> ops = {                                                 \
        &star, &rightDense, &rightCsr, &Name<Real, 1>::axpy, KernelBackend::kVector, Isa};         \
  };

// Baseline: the widest vector ISA the build flags enable (SSE2/NEON 16 B
// floor — never scalar).
#if defined(__AVX512F__)
NGLTS_VECTOR_VARIANT(BaselineVec, , 64, "avx512f")
#elif defined(__AVX2__)
NGLTS_VECTOR_VARIANT(BaselineVec, , 32, "avx2")
#elif defined(__AVX__)
NGLTS_VECTOR_VARIANT(BaselineVec, , 32, "avx")
#elif defined(__x86_64__)
NGLTS_VECTOR_VARIANT(BaselineVec, , 16, "sse2")
#elif defined(__aarch64__)
NGLTS_VECTOR_VARIANT(BaselineVec, , 16, "neon")
#else
NGLTS_VECTOR_VARIANT(BaselineVec, , 16, "generic")
#endif

// AVX2 runtime clone, 32-byte vectors: only worth stamping when the
// baseline does not already target AVX2. It deliberately does NOT enable
// FMA — contraction must match the scalar reference.
#if defined(__x86_64__) && !defined(__AVX2__)
#define NGLTS_AVX2_CLONE 1
NGLTS_VECTOR_VARIANT(Avx2Vec, __attribute__((target("avx2"))), 32, "avx2")
#endif

// AVX-512 runtime clone, 64-byte vectors: 8 doubles / 16 floats per
// register. AVX512F carries its own FMA forms, so `target("avx512f")` alone
// would let GCC contract `acc += a * b` into vfmadd even without the `fma`
// flag. On builds whose baseline cannot contract (no __FMA__: plain
// x86-64) that is an asymmetric contraction — a bitwise break against the
// scalar reference — so `fp-contract=off` keeps the mul+add pairs separate
// there. When the baseline itself has FMA every backend contracts
// symmetrically and the clone must contract too.
#if defined(__x86_64__) && !defined(__AVX512F__)
#define NGLTS_AVX512_CLONE 1
#if defined(__FMA__)
NGLTS_VECTOR_VARIANT(Avx512Vec, __attribute__((target("avx512f"))), 64, "avx512f")
#else
NGLTS_VECTOR_VARIANT(Avx512Vec, __attribute__((optimize("fp-contract=off"), target("avx512f"))),
                     64, "avx512f")
#endif
#endif

#endif // NGLTS_HAVE_VECTOR_KERNELS

template <typename Real, int W>
std::vector<const SmallGemmOps<Real, W>*> runnableVectorTables() {
  std::vector<const SmallGemmOps<Real, W>*> tables;
  if (!detectCpuSimd().any()) return tables;
#if NGLTS_AVX512_CLONE
  if (detectCpuSimd().avx512f) tables.push_back(&Avx512Vec<Real, W>::ops);
#endif
#if NGLTS_AVX2_CLONE
  if (detectCpuSimd().avx2) tables.push_back(&Avx2Vec<Real, W>::ops);
#endif
#if NGLTS_HAVE_VECTOR_KERNELS
  tables.push_back(&BaselineVec<Real, W>::ops);
#endif
  return tables;
}

} // namespace

const CpuSimd& detectCpuSimd() {
  static const CpuSimd simd = detectCpuSimdImpl();
  return simd;
}

template <typename Real, int W>
const std::vector<const SmallGemmOps<Real, W>*>& vectorKernelTables() {
  static const std::vector<const SmallGemmOps<Real, W>*> tables = runnableVectorTables<Real, W>();
  return tables;
}

template <typename Real, int W>
const SmallGemmOps<Real, W>& smallGemmOps(KernelBackend resolved) {
  const auto& vector = vectorKernelTables<Real, W>();
  if (resolved == KernelBackend::kVector && !vector.empty()) return *vector.front();
  return kScalarOps<Real, W>;
}

NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_SMALL_GEMM_OPS, )

KernelBackend resolveKernelBackend(KernelBackend requested) {
  const bool vectorOk = !vectorKernelTables<double, 1>().empty();
  switch (requested) {
    case KernelBackend::kScalar:
      return KernelBackend::kScalar;
    case KernelBackend::kVector:
      if (!vectorOk)
        throw std::runtime_error(
            std::string("kernel backend 'vector' requested but unavailable (") +
            (vectorBackendCompiled() ? "CPU reports no SIMD features"
                                     : "build has no vector kernels") +
            "); an explicit request never falls back — leave the backend at auto");
      return KernelBackend::kVector;
    case KernelBackend::kAuto:
      return vectorOk ? KernelBackend::kVector : KernelBackend::kScalar;
  }
  throw std::invalid_argument("unknown KernelBackend value");
}

std::string resolvedKernelBackendLabel(KernelBackend requested) {
  if (resolveKernelBackend(requested) == KernelBackend::kVector)
    return "vector(" + std::string(smallGemmOps<double, 1>(KernelBackend::kVector).isa) + ")";
  return "scalar";
}

} // namespace nglts::linalg
