#pragma once
// Core scalar and index types plus compile-time size helpers shared by every
// module of the nglts library (reproduction of Breuer & Heinecke, IPDPS 2022).
#include <cstddef>
#include <cstdint>

namespace nglts {

/// Element / global entity index. Meshes of up to ~2^31 entities.
using idx_t = std::int64_t;
/// Small local counts (basis size, face ids, cluster ids, ...).
using int_t = std::int32_t;

/// Number of elastic quantities: 6 stresses + 3 particle velocities.
inline constexpr int_t kElasticVars = 9;
/// Memory variables per relaxation mechanism (one per stress component).
inline constexpr int_t kAnelasticVarsPerMech = 6;

/// Number of anelastic memory variables for m relaxation mechanisms.
constexpr int_t numAnelasticVars(int_t mechs) { return kAnelasticVarsPerMech * mechs; }

/// Total number of PDE quantities N_q = 9 + 6m.
constexpr int_t numVars(int_t mechs) { return kElasticVars + numAnelasticVars(mechs); }

/// Number of 3D modal basis functions for a convergence order O
/// (polynomial degree O-1): B(O) = O(O+1)(O+2)/6.
constexpr int_t numBasis3d(int_t order) { return order * (order + 1) * (order + 2) / 6; }

/// Number of 2D (triangle) basis functions: F(O) = O(O+1)/2.
constexpr int_t numBasis2d(int_t order) { return order * (order + 1) / 2; }

/// Variable ordering inside the elastic block.
enum ElasticVar : int_t {
  kSxx = 0, kSyy = 1, kSzz = 2, kSxy = 3, kSyz = 4, kSxz = 5,
  kVelU = 6, kVelV = 7, kVelW = 8
};

/// Face boundary conditions.
enum class FaceKind : std::uint8_t {
  kInterior = 0,   ///< regular element-element face
  kFreeSurface,    ///< traction-free boundary (earth's surface)
  kAbsorbing,      ///< first-order absorbing / outflow boundary
  kPeriodic        ///< periodic partner face (treated as interior)
};

} // namespace nglts

/// The engine-type table: every (scalar, fused width W) pair the solver
/// engine is compiled for (Sec. IV-A fuses W forward simulations into one
/// execution). `X(Real, W, ...)` is expanded once per pair, in this order,
/// with the extra arguments passed through. The explicit instantiations of
/// the engine layers and the snapshot I/O, the runtime dispatch
/// `solver::dispatchEngineType` (solver/simulation.hpp) and the batch
/// packer's widths all come from it; adding a width is one line here.
/// Widths ascend within a precision, and W = 1 is listed at both.
#define NGLTS_FOR_EACH_ENGINE_TYPE(X, ...) \
  X(float, 1, __VA_ARGS__)                 \
  X(float, 2, __VA_ARGS__)                 \
  X(float, 4, __VA_ARGS__)                 \
  X(float, 8, __VA_ARGS__)                 \
  X(float, 16, __VA_ARGS__)                \
  X(double, 1, __VA_ARGS__)                \
  X(double, 2, __VA_ARGS__)                \
  X(double, 4, __VA_ARGS__)

/// `NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_ENGINE_CLASS, extern, Name)` declares
/// the class template `Name` for every engine type (in its header);
/// `NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_ENGINE_CLASS, , Name)` instantiates it
/// (in its .cpp).
#define NGLTS_ENGINE_CLASS(Real, W, Extern, Name) Extern template class Name<Real, W>;
