#include "linalg/kernel_backend.hpp"

#include <stdexcept>

// For NGLTS_HAVE_AVX2_CLONES / the baseline vector width macros, so the
// label below names the kernels that actually dispatch, not merely the
// CPU's widest ISA.
#include "linalg/small_gemm_vector.hpp"

namespace nglts::linalg {

namespace {

/// ISA of the vector-backend kernels that would actually run on this
/// build + host: the widest runtime clone compiled in that the CPU
/// supports (AVX-512 before AVX2), else the baseline variant's
/// compile-time width. NOT the same as `detectCpuSimd().isa` — the clone
/// tables only exist on portable x86-64 builds, and a build without them
/// runs whatever `-march` baked in.
const char* vectorKernelIsa() {
#if NGLTS_HAVE_AVX512_CLONES
  if (detectCpuSimd().avx512f) return "avx512f";
#endif
#if NGLTS_HAVE_AVX2_CLONES
  if (detectCpuSimd().avx2) return "avx2";
#endif
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__x86_64__)
  return "sse2";
#elif defined(__aarch64__)
  return "neon";
#else
  return "generic";
#endif
}

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

} // namespace

const CpuSimd& detectCpuSimd() {
  static const CpuSimd simd = detectCpuSimdImpl();
  return simd;
}

KernelBackend resolveKernelBackend(KernelBackend requested) {
  const bool vectorOk = vectorBackendCompiled() && detectCpuSimd().any();
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
    return "vector(" + std::string(vectorKernelIsa()) + ")";
  return "scalar";
}

} // namespace nglts::linalg
