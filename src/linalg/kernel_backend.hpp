#pragma once
// Kernel backend selection for the small-GEMM hot-path layer
// (docs/KERNELS.md). Two implementations of every kernel exist:
//
//   * scalar — the reference triple loops of linalg/small_gemm.hpp
//     (`#pragma omp simd` hints only, auto-vectorization),
//   * vector — the explicit register-blocked SIMD micro-kernels of
//     linalg/small_gemm_vector.hpp (GCC/Clang vector extensions).
//
// The backend is a *runtime* choice: `resolveKernelBackend` maps the
// requested backend (`SimConfig::kernelBackend`, the `--kernel` CLI flag,
// or the `NGLTS_KERNEL` bench environment variable) to a concrete one,
// using compile-time availability plus CPU feature detection for `auto`.
// An *explicit* `vector` request never silently falls back — it throws if
// the build or host cannot honor it (CI asserts this).
//
// Both backends are bitwise-identical by construction: they vectorize only
// across independent output elements and preserve the scalar reference's
// summation order and zero-skip tests (see docs/KERNELS.md, "Why the
// backends agree bitwise").
#include <string>
#include <vector>

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

/// One registry entry per backend: stable name (CLI/`NGLTS_KERNEL` value),
/// availability on this build+host, and a one-line description.
struct KernelBackendInfo {
  KernelBackend id;
  const char* name;
  const char* description;
  bool available;
};

/// The backend registry (scalar, vector — `auto` is a
/// resolution rule, not an implementation, so it is not listed). Order is
/// stable.
const std::vector<KernelBackendInfo>& kernelBackendRegistry();

/// Map a requested backend to a concrete one:
///   * kScalar      -> kScalar (always available),
///   * kVector      -> kVector, or `std::runtime_error` when the build has
///     no vector kernels or the CPU reports no SIMD — an explicit request
///     must never silently degrade,
///   * kAuto        -> kVector when compiled in and the CPU has SIMD, else
///     kScalar.
KernelBackend resolveKernelBackend(KernelBackend requested);

/// Stable name of a backend value:
/// "auto" | "scalar" | "vector".
std::string kernelBackendName(KernelBackend b);

/// Inverse of `kernelBackendName`; throws `std::invalid_argument` on
/// anything else (the CLI's `--kernel` error path).
KernelBackend parseKernelBackend(const std::string& s);

/// Human-readable label of what `requested` resolves to, e.g. "scalar",
/// "vector(avx512f)" or "vector(avx2)" — printed in scenario summaries
/// and bench artifacts so every measurement records the backend (and the
/// ISA its kernels actually dispatch to) that produced it.
std::string resolvedKernelBackendLabel(KernelBackend requested);

} // namespace nglts::linalg
