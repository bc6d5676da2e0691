#pragma once
// Solver configuration shared by the three layers of the solver core:
// the SolverState memory arena (state.hpp), the StepExecutor (executor.hpp)
// and the engine driving them (parallel/dist_sim.hpp; `solver::Simulation`,
// simulation.hpp, is its single-rank name).
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/types.hpp"
#include "linalg/kernel_backend.hpp"

namespace nglts::solver {

enum class TimeScheme : int_t {
  kGts = 0,      ///< one cluster, everything at dt_min
  kLtsNextGen,   ///< three-buffer scheme (this paper)
  kLtsBaseline   ///< buffer+derivative scheme of [15]
};

/// Arithmetic precision of the solver's hot path (DOF arenas, kernels,
/// predictor, seismo hooks). `kF64` is the accuracy reference; `kF32`
/// reproduces the paper's single-precision fused runs — half the arena
/// bandwidth and twice the SIMD lanes per register. fp32 results are NOT
/// bitwise-comparable to fp64: they are gated by seismogram *misfit*
/// against the double-precision golden fixtures instead (docs/KERNELS.md,
/// "Precision policy"; tolerances asserted in tests/test_precision.cpp).
enum class Precision : int_t {
  kF64 = 0,  ///< double everywhere (the default and accuracy reference)
  kF32       ///< float arenas + kernels, misfit-gated against f64 goldens
};

/// The precision whose scalar type is `Real` (float or double).
template <typename Real>
constexpr Precision precisionOf() {
  static_assert(std::is_same_v<Real, float> || std::is_same_v<Real, double>);
  return std::is_same_v<Real, float> ? Precision::kF32 : Precision::kF64;
}

/// Stable name of a precision value: "f64" | "f32" (CLI/bench/artifacts).
inline const char* precisionName(Precision p) {
  return p == Precision::kF32 ? "f32" : "f64";
}

/// Inverse of `precisionName`; throws `std::invalid_argument` on anything
/// else (the CLI's `--precision` error path).
inline Precision parsePrecision(const std::string& s) {
  if (s == "f64") return Precision::kF64;
  if (s == "f32") return Precision::kF32;
  throw std::invalid_argument("unknown precision '" + s + "' (expected f64 | f32)");
}

/// Largest accepted `SimConfig::numClusters`, an input check. The paper uses
/// at most 5 clusters and no run here uses more than 6. The value is an
/// upper bound: the clustering drops the empty top clusters, so a run steps
/// whole cycles of 2^(N_c-1) cluster-0 steps over its populated N_c only.
inline constexpr int_t kMaxClusters = 10;

/// Solver configuration shared by all time-stepping schemes. Every field
/// has a validated range; the engine's constructor throws
/// `std::invalid_argument` on violations.
struct SimConfig {
  /// Convergence order O of the ADER-DG discretization (polynomial degree
  /// O-1, B = O(O+1)(O+2)/6 modal basis functions). Valid: 1..7; the
  /// paper's experiments use O = 4..6 (Sec. III, Tab. I).
  int_t order = 4;
  /// Number of anelastic relaxation mechanisms m per element; the PDE has
  /// N_q = 9 + 6m quantities. Valid: >= 0; 0 = purely elastic,
  /// 3 = the paper's standard viscoelastic setting (Sec. II).
  int_t mechanisms = 0;
  /// CFL safety factor c in dt = c * dt_CFL(element). Valid: (0, 1];
  /// 0.5 reproduces the paper's setting.
  double cfl = 0.5;
  /// Use fully sparse CSR kernels for the global (stiffness/flux) matrices
  /// instead of dense block-trimmed ones. Profitable for fused simulations
  /// (W > 1), where the ensemble dimension vectorizes perfectly (Sec. IV).
  bool sparseKernels = false;
  /// Small-GEMM kernel backend (docs/KERNELS.md): `kAuto`, the CPU
  /// detection every scenario runs, picks the explicit-SIMD vector kernels
  /// when build and CPU support them. `kScalar` (the reference) and
  /// `kVector` force one implementation for the tests that compare them; an
  /// explicit `kVector` on an unsupported build/host throws instead of
  /// falling back. No CLI flag sets it. Orthogonal to `sparseKernels`
  /// (which picks the operator *image*, not the implementation). Results
  /// are bitwise-identical across backends.
  linalg::KernelBackend kernelBackend = linalg::KernelBackend::kAuto;
  /// Execution precision (`--precision {f64,f32}`): selects which
  /// `Simulation<Real, W>` instantiation the CLI/batch layers dispatch to.
  /// The engine's constructor normalizes this field to match its actual
  /// scalar type, so `config()` always reports the precision that ran.
  /// fp32 is misfit-gated, not bitwise-gated — see the `Precision` enum.
  Precision precision = Precision::kF64;
  /// Time-stepping scheme: GTS, the paper's next-generation clustered LTS
  /// (Sec. V), or the buffer+derivative baseline of [15].
  TimeScheme scheme = TimeScheme::kGts;
  /// Upper bound on the rate-2 LTS clusters N_c (cluster c steps at
  /// 2^c * dt_min); the empty clusters above the populated ones are dropped
  /// (`lts::buildClustering`). Valid: 1..kMaxClusters; ignored for GTS
  /// (which behaves as N_c = 1). The paper uses 3 for LOH.3 (Fig. 4) and 5
  /// for La Habra (Fig. 5).
  int_t numClusters = 3;
  /// Cluster-growth control parameter lambda of the clustering criterion
  /// (Sec. V-A): elements with dt < (1 + lambda) * 2^c * dt_min may stay
  /// in cluster c. Valid: (0.5, 1]; ignored when `autoLambda` is set.
  double lambda = 1.0;
  /// Sweep lambda over a grid and keep the value maximizing the
  /// theoretical speedup (the paper's auto-tuning of Sec. V-A).
  bool autoLambda = false;
  /// Central frequency [Hz] of the constant-Q fit band for the anelastic
  /// relaxation mechanisms (Sec. II). Valid: > 0 when mechanisms > 0.
  /// The engine never reads it: only callers that build the materials do
  /// (quickstart, loh3, fused via `materialsForMesh`/`viscoElasticMaterial`).
  /// Pipeline-driven runs (loh1, lahabra, batch) fit Q at
  /// `pre::PipelineConfig::maxFrequency` instead.
  double attenuationFreq = 1.0;
  /// Receiver sampling interval [s]; receivers are sampled on this uniform
  /// grid by evaluating the ADER predictor's Taylor expansion inside each
  /// element-local step. Valid: >= 0; 0 = sample at the receiver element's
  /// own local time levels.
  double receiverSampleDt = 0.0;
  /// OpenMP threads the `StepExecutor` element loops and the arena's NUMA
  /// first-touch pass use (per rank in distributed runs). Valid: >= 1;
  /// 1 = serial. Results are bitwise-identical for every value — each
  /// element belongs to exactly one static chunk (solver/threading.hpp) —
  /// so this is purely a performance knob. The CLI defaults it to the
  /// hardware thread count divided by `--ranks`.
  int_t numThreads = 1;
};

/// Validate the pure-config ranges above; throws `std::invalid_argument`
/// naming the violated field. Mesh/material consistency is checked
/// separately by the engine's constructor.
inline void validateSimConfig(const SimConfig& cfg) {
  if (cfg.order < 1 || cfg.order > 7)
    throw std::invalid_argument("SimConfig: order must be in 1..7");
  if (cfg.mechanisms < 0)
    throw std::invalid_argument("SimConfig: mechanisms must be >= 0");
  if (!(cfg.cfl > 0.0) || cfg.cfl > 1.0)
    throw std::invalid_argument("SimConfig: cfl must be in (0, 1]");
  if (cfg.numClusters < 1 || cfg.numClusters > kMaxClusters)
    throw std::invalid_argument("SimConfig: numClusters must be in 1.." +
                                std::to_string(kMaxClusters));
  if (!(cfg.lambda > 0.5 && cfg.lambda <= 1.0))
    throw std::invalid_argument("SimConfig: lambda must be in (0.5, 1]");
  if (cfg.mechanisms > 0 && !(cfg.attenuationFreq > 0.0))
    throw std::invalid_argument("SimConfig: attenuationFreq must be > 0 for anelastic runs");
  if (cfg.receiverSampleDt < 0.0)
    throw std::invalid_argument("SimConfig: receiverSampleDt must be >= 0");
  if (cfg.numThreads < 1)
    throw std::invalid_argument("SimConfig: numThreads must be >= 1 (1 = serial)");
}

struct PerfStats {
  double seconds = 0.0;
  double simulatedTime = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t elementUpdates = 0; ///< per fused lane
  std::uint64_t flops = 0;          ///< useful floating point ops (all lanes)
  double elementUpdatesPerSecond() const {
    return seconds > 0 ? static_cast<double>(elementUpdates) / seconds : 0.0;
  }
  double gflops() const { return seconds > 0 ? flops / seconds * 1e-9 : 0.0; }
};

/// Bytes of the per-element operator data (`SolverState::operatorBytes`):
/// the elastic arena every run holds, and the anelastic one, 0 without
/// mechanisms.
struct OperatorBytes {
  std::uint64_t elastic = 0;
  std::uint64_t anelastic = 0;
};

} // namespace nglts::solver
