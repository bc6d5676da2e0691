#pragma once
// Versioned binary snapshots for checkpoint/restart of batch runs.
//
// The complete time-loop state of a single-rank `Simulation` (the 1-rank
// `parallel::DistributedSimulation`; multi-rank snapshots are not
// supported) lives in rank 0's `SolverState` arenas (DOFs q, the B1/B2/B3
// buffers, the baseline derivative stack), the executor's per-cluster step
// counters and the accumulated receiver traces;
// everything else — mesh, operators, schedule — is rebuilt deterministically
// from the constructor inputs (the box generator is seeded, the lambda sweep
// is pure). A snapshot therefore serializes exactly those three pieces at a
// *cycle boundary* (`runCycles` is the matching entry point) and
// a restored run is bitwise-identical to an uninterrupted one.
//
// Format (all integers little-endian, reals by IEEE-754 bit pattern):
//   magic "NGLTSNAP" | u32 version | u32 realSize | u32 width |
//   u32 hasState | u32 precision (0 = f64, 1 = f32) |
//   u64 batchFingerprint | u64 runIndex | u64 cyclesDone |
//   [state block when hasState != 0] | u64 FNV-1a checksum of all prior bytes
// A build reads exactly the version it writes (`kSnapshotVersion`): older
// snapshots could not restore anyway, because their batch fingerprints
// differ from every current one (see `kSnapshotVersion`).
//
// The state block holds the arena geometry (numElements, elSize, bufSize,
// stackSize, buffer-presence flags), the cluster step counters, the raw
// arena bytes and the per-receiver per-lane traces. `batchFingerprint` ties
// a snapshot to one batch definition (config + request list, see
// `BatchEngine::fingerprint()`); `runIndex`/`cyclesDone` locate the schedule
// position inside the batch. A *run-boundary* snapshot (hasState = 0,
// cyclesDone = 0) marks "runs [0, runIndex) complete, nothing in flight".
//
// Failure modes are distinguished deliberately: a bad magic or version
// mismatch throws before the checksum is verified (so old-format files get a
// "snapshot version" error, not a generic one), while truncation and bit
// corruption fail the trailing checksum. All errors are `std::runtime_error`
// with the offending path in the message. Writes go through a temp file +
// atomic rename, so a crash mid-write never leaves a torn snapshot behind.
#include <cstdint>
#include <string>

#include "solver/simulation.hpp"

namespace nglts::batch {

/// The one snapshot format this build writes and reads. v2 added the
/// precision field. v3: the pipeline cache key grew
/// `PipelineConfig::partitionWeighting`, so config fingerprints from older
/// builds no longer match (the format of the state block itself is
/// unchanged from v2).
/// v4: the pipeline cache key grew the scenario-ingestion content hashes
/// (`meshContentHash`, `faultContentHash`) — again a pure fingerprint
/// invalidation, the state block is unchanged.
inline constexpr std::uint32_t kSnapshotVersion = 4;

/// Header of a snapshot file; `peekSnapshot` reads it without touching the
/// (much larger) state block, so the batch driver can pick the fused width
/// (and reject a precision mismatch early) before loading arenas.
struct SnapshotInfo {
  std::uint64_t batchFingerprint = 0;
  std::uint64_t runIndex = 0;    ///< planned run the snapshot belongs to
  std::uint64_t cyclesDone = 0;  ///< cycles completed inside that run
  bool hasState = false;         ///< false = run-boundary marker
  std::uint32_t realSize = 0;    ///< sizeof(Real) of the saved arenas
  std::uint32_t width = 0;       ///< fused width W of the saved run
  solver::Precision precision = solver::Precision::kF64; ///< precision it was written at
};

/// Read and validate only the snapshot header (magic, version, full-file
/// checksum). Throws `std::runtime_error` on a missing/unreadable file, a
/// version mismatch, or a corrupted/truncated file.
SnapshotInfo peekSnapshot(const std::string& path);

/// Write a snapshot atomically (temp file + rename). `sim == nullptr`
/// writes a run-boundary marker (hasState = 0). The simulation must be at a
/// cycle boundary — `cyclesDone` cycles into its run — and run on one rank
/// (`std::invalid_argument` otherwise).
template <typename Real, int W>
void saveSnapshot(const std::string& path, std::uint64_t batchFingerprint, std::uint64_t runIndex,
                  std::uint64_t cyclesDone, const solver::Simulation<Real, W>* sim);

/// Restore arenas, step counters and receiver traces into `sim`, which must
/// have been rebuilt with the same mesh/config/receivers as the saved run.
/// Throws `std::invalid_argument` for a multi-rank `sim`, and
/// `std::runtime_error` when the snapshot does not carry state, or when its
/// geometry (element count, arena sizes, width, scalar size,
/// cluster/receiver counts) does not match `sim`.
template <typename Real, int W>
SnapshotInfo loadSnapshot(const std::string& path, solver::Simulation<Real, W>& sim);

extern template void saveSnapshot<float, 1>(const std::string&, std::uint64_t, std::uint64_t,
                                            std::uint64_t, const solver::Simulation<float, 1>*);
extern template void saveSnapshot<float, 2>(const std::string&, std::uint64_t, std::uint64_t,
                                            std::uint64_t, const solver::Simulation<float, 2>*);
extern template void saveSnapshot<float, 4>(const std::string&, std::uint64_t, std::uint64_t,
                                            std::uint64_t, const solver::Simulation<float, 4>*);
extern template void saveSnapshot<double, 1>(const std::string&, std::uint64_t, std::uint64_t,
                                             std::uint64_t, const solver::Simulation<double, 1>*);
extern template void saveSnapshot<double, 2>(const std::string&, std::uint64_t, std::uint64_t,
                                             std::uint64_t, const solver::Simulation<double, 2>*);
extern template void saveSnapshot<double, 4>(const std::string&, std::uint64_t, std::uint64_t,
                                             std::uint64_t, const solver::Simulation<double, 4>*);
extern template SnapshotInfo loadSnapshot<float, 1>(const std::string&,
                                                    solver::Simulation<float, 1>&);
extern template SnapshotInfo loadSnapshot<float, 2>(const std::string&,
                                                    solver::Simulation<float, 2>&);
extern template SnapshotInfo loadSnapshot<float, 4>(const std::string&,
                                                    solver::Simulation<float, 4>&);
extern template SnapshotInfo loadSnapshot<double, 1>(const std::string&,
                                                     solver::Simulation<double, 1>&);
extern template SnapshotInfo loadSnapshot<double, 2>(const std::string&,
                                                     solver::Simulation<double, 2>&);
extern template SnapshotInfo loadSnapshot<double, 4>(const std::string&,
                                                     solver::Simulation<double, 4>&);

} // namespace nglts::batch
