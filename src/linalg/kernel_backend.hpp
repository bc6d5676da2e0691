#pragma once
// Kernel backend selection for the small-GEMM hot-path layer
// (docs/KERNELS.md). Two implementations of every kernel exist:
//
//   * scalar — the reference triple loops of linalg/small_gemm.hpp
//     (`#pragma omp simd` hints only, auto-vectorization),
//   * vector — the explicit register-blocked SIMD micro-kernels of
//     linalg/small_gemm_vector.hpp (GCC/Clang vector extensions), compiled
//     once per ISA variant of the build's clone set.
//
// kernel_backend.cpp owns the dispatch tables of both backends
// (linalg/small_gemm_dispatch.hpp): it is the only TU that compiles the
// vector kernels, it decides which ISA variants this build carries and
// which one dispatches on the host, and the label below names that one.
//
// The machine picks the backend: `kAuto` (the default of
// `SimConfig::kernelBackend`, which no scenario, CLI flag or environment
// variable changes) resolves by compile-time availability plus CPU feature
// detection. The scalar backend is the reference the tests compare the
// dispatched one against (test_kernel_backends, the scalar rows of
// test_determinism), requested through `SimConfig::kernelBackend`. An
// *explicit* `vector` request never silently falls back — it throws if the
// build or host cannot honor it.
//
// Both backends are bitwise-identical by construction: they vectorize only
// across independent output elements and preserve the scalar reference's
// summation order and zero-skip tests (see docs/KERNELS.md, "Why the
// backends agree bitwise").
#include <string>

#include "common/types.hpp"

namespace nglts::linalg {

/// Requested kernel backend. `kAuto` resolves at runtime (CPU detection);
/// `kScalar`/`kVector` force one implementation — `kVector` hard-errors
/// instead of falling back when unavailable.
enum class KernelBackend : int_t {
  kAuto = 0,  ///< resolve via `resolveKernelBackend` (the default)
  kScalar,    ///< reference triple loops, auto-vectorization only
  kVector     ///< explicit register-blocked SIMD micro-kernels
};

/// Host SIMD capability, detected once at first use (x86: cpuid via
/// `__builtin_cpu_supports`; aarch64: NEON is architectural). `isa` names
/// the widest level the CPU offers; the vector backend's *codegen* is still
/// bounded by the compile flags (`-march`, see docs/PERFORMANCE.md).
struct CpuSimd {
  bool sse2 = false;
  bool avx = false;
  bool avx2 = false;
  bool avx512f = false;
  bool neon = false;
  const char* isa = "none";  ///< "avx512f" | "avx2" | "avx" | "sse2" | "neon" | "none"

  bool any() const { return sse2 || avx || avx2 || avx512f || neon; }
};

/// Detect (and cache) the host's SIMD features.
const CpuSimd& detectCpuSimd();

/// Whether this build carries the explicit-SIMD kernels at all (GCC/Clang
/// vector extensions; other compilers get the scalar backend only).
constexpr bool vectorBackendCompiled() {
#if defined(__GNUC__) || defined(__clang__)
  return true;
#else
  return false;
#endif
}

/// Map a requested backend to a concrete one:
///   * kScalar      -> kScalar (always available),
///   * kVector      -> kVector, or `std::runtime_error` when the build has
///     no vector kernels or the CPU reports no SIMD — an explicit request
///     must never silently degrade,
///   * kAuto        -> kVector when compiled in and the CPU has SIMD, else
///     kScalar.
KernelBackend resolveKernelBackend(KernelBackend requested);

/// Human-readable label of what `requested` resolves to: "scalar", or
/// "vector(<isa>)" naming the dispatched table's ISA (the first of
/// `vectorKernelTables`, e.g. "vector(avx512f)") — printed in scenario
/// summaries and bench artifacts so every measurement records the backend
/// (and the ISA its kernels actually dispatch to) that produced it.
std::string resolvedKernelBackendLabel(KernelBackend requested);

} // namespace nglts::linalg
