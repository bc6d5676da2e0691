#pragma once
// Per-thread floating-point environment of the solver loops.
//
// Far-field DOFs of a Gaussian initial condition, and the ADER-DG domain of
// dependence ahead of a wavefront, hold values that underflow f32 into the
// subnormal range. Arithmetic on subnormal operands or results takes
// microcode assists on x86 (tens to hundreds of cycles per instruction), so a
// small share of subnormal DOFs can slow a whole f32 run several-fold.
// `ScopedFlushDenormals` flushes subnormal results to zero and reads
// subnormal operands as zero for the lifetime of the guard.
//
// The FP control register is per thread and OpenMP pool threads are reused,
// so the guard is entered inside every parallel block that runs solver work
// (threading.hpp) and around the distributed run loop (exchange.cpp), and it
// restores the saved state on exit: the host application's FP environment
// is never left changed. All solver configurations (threads, ranks,
// transport) compute under the same mode, which keeps them
// bitwise-identical to each other.
#include <cstdint>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace nglts {

namespace detail {
#if defined(__x86_64__)
inline constexpr std::uint64_t kFlushBits = 0x8040; ///< MXCSR FTZ (bit 15) | DAZ (bit 6)
#elif defined(__aarch64__)
inline constexpr std::uint64_t kFlushBits = std::uint64_t{1} << 24; ///< FPCR.FZ
#else
inline constexpr std::uint64_t kFlushBits = 0;
#endif
} // namespace detail

/// Whether `ScopedFlushDenormals` changes the FP mode on this platform; on
/// other platforms it is a no-op and subnormals follow IEEE 754.
inline constexpr bool kFlushDenormals = detail::kFlushBits != 0;

/// The calling thread's FP control word: MXCSR on x86-64, FPCR on AArch64,
/// 0 elsewhere.
inline std::uint64_t fpControlWord() {
#if defined(__x86_64__)
  return _mm_getcsr();
#elif defined(__aarch64__)
  std::uint64_t fpcr = 0;
  asm volatile("mrs %0, fpcr" : "=r"(fpcr));
  return fpcr;
#else
  return 0;
#endif
}

/// Write the calling thread's FP control word (no-op where unsupported).
inline void setFpControlWord([[maybe_unused]] std::uint64_t word) {
#if defined(__x86_64__)
  _mm_setcsr(static_cast<unsigned>(word));
#elif defined(__aarch64__)
  asm volatile("msr fpcr, %0" : : "r"(word) : "memory");
#endif
}

/// RAII guard: flush-to-zero and denormals-are-zero on the calling thread
/// until destruction, which restores the previous control word.
class ScopedFlushDenormals {
 public:
  ScopedFlushDenormals() : saved_(fpControlWord()) {
    setFpControlWord(saved_ | detail::kFlushBits);
  }
  ~ScopedFlushDenormals() { setFpControlWord(saved_); }
  ScopedFlushDenormals(const ScopedFlushDenormals&) = delete;
  ScopedFlushDenormals& operator=(const ScopedFlushDenormals&) = delete;

 private:
  std::uint64_t saved_;
};

} // namespace nglts
