#pragma once
// Versioned binary snapshots for checkpoint/restart of batch runs.
//
// At a cycle boundary the complete time-loop state of a `Simulation` (a
// `parallel::DistributedSimulation` on any rank count) is the DOFs of every
// element, the number of cycles done and the accumulated receiver traces:
// every local phase recomputes B1/B2/B3 and the baseline derivative stack
// before anything reads them, and the step counters follow from the cycle
// count. Everything else — mesh, operators, schedule — is rebuilt
// deterministically from the constructor inputs (the box generator is
// seeded, the lambda sweep is pure). A snapshot serializes exactly that
// state through the engine's global-id accessors (`dofs`, `receiver`), so
// it never sees an arena layout: a run saved at R ranks restores at any R',
// and the file bytes at a given cycle are the same for every rank count,
// transport and thread count. `runCycles` is the matching entry point, and
// a restored run is bitwise-identical to an uninterrupted one. Under MPI
// with more than one rank both directions throw `std::invalid_argument`
// (the DOFs of remote ranks are not in this process).
//
// Format (all integers little-endian, reals by IEEE-754 bit pattern):
//   magic "NGLTSNAP" | u32 version | u32 realSize | u32 width |
//   u32 hasState | u32 precision (0 = f64, 1 = f32) |
//   u64 batchFingerprint | u64 runIndex | u64 cyclesDone |
//   [state block when hasState != 0] | u64 FNV-1a checksum of all prior bytes
// State block:
//   u64 numElements | u64 elSize | u64 numClusters |
//   numElements x elSize reals, element by ascending global id |
//   u64 numReceivers | per receiver: u64 lanes | per lane: u64 samples |
//   samples f64 times | samples x 9 f64 values
// `numClusters` only validates the restore target. `batchFingerprint` ties
// a snapshot to one batch definition (config + request list, see
// `BatchEngine::fingerprint()`); `runIndex`/`cyclesDone` locate the schedule
// position inside the batch. A *run-boundary* snapshot (hasState = 0,
// cyclesDone = 0) marks "runs [0, runIndex) complete, nothing in flight".
//
// Failure modes are distinguished deliberately: a bad magic or version
// mismatch throws before the checksum is verified (so other-format files get
// a "snapshot version" error, not a generic one), while truncation and bit
// corruption fail the trailing checksum. All errors are `std::runtime_error`
// with the offending path in the message. Writes go through a temp file +
// atomic rename, so a crash mid-write never leaves a torn snapshot behind.
#include <cstdint>
#include <string>

#include "solver/simulation.hpp"

namespace nglts::batch {

/// The one snapshot format this build writes and reads; a build reads
/// exactly the version it writes.
inline constexpr std::uint32_t kSnapshotVersion = 7;

/// Header of a snapshot file; `peekSnapshot` reads it without touching the
/// (much larger) state block, so the batch driver can pick the fused width
/// (and reject a precision mismatch early) before loading state.
struct SnapshotInfo {
  std::uint64_t batchFingerprint = 0;
  std::uint64_t runIndex = 0;    ///< planned run the snapshot belongs to
  std::uint64_t cyclesDone = 0;  ///< cycles completed inside that run
  bool hasState = false;         ///< false = run-boundary marker
  std::uint32_t realSize = 0;    ///< sizeof(Real) of the saved DOFs
  std::uint32_t width = 0;       ///< fused width W of the saved run
  solver::Precision precision = solver::Precision::kF64; ///< precision it was written at
};

/// Read and validate only the snapshot header (magic, version, full-file
/// checksum). Throws `std::runtime_error` on a missing/unreadable file, a
/// version mismatch, or a corrupted/truncated file.
SnapshotInfo peekSnapshot(const std::string& path);

/// Throws `std::runtime_error` when the snapshot at `path`, whose header is
/// `info`, was saved at a precision other than `want`, naming the
/// `--precision` value it was saved at. Both restore paths run it before
/// any other check: a precision flip also changes the batch fingerprint and
/// the saved scalar size, but those messages would not name the flag.
void checkSnapshotPrecision(const std::string& path, const SnapshotInfo& info,
                            solver::Precision want);

/// Write a snapshot atomically (temp file + rename). `sim == nullptr`
/// writes a run-boundary marker (hasState = 0). The simulation must be at a
/// cycle boundary, `cyclesDone` cycles into its run. Throws
/// `std::invalid_argument` for a multi-rank MPI run.
template <typename Real, int W>
void saveSnapshot(const std::string& path, std::uint64_t batchFingerprint, std::uint64_t runIndex,
                  std::uint64_t cyclesDone, const solver::Simulation<Real, W>* sim);

/// Restore DOFs and receiver traces into `sim` and resume it at the saved
/// cycle. `sim` must have been rebuilt with the same mesh/config/receivers
/// as the saved run, at any rank count. Throws `std::invalid_argument` for a
/// multi-rank MPI run, and `std::runtime_error` when the snapshot does not
/// carry state, or when its shape (element count, DOFs per element, width,
/// scalar size, cluster/receiver counts) does not match `sim`.
template <typename Real, int W>
SnapshotInfo loadSnapshot(const std::string& path, solver::Simulation<Real, W>& sim);

/// Declares (`Extern` = extern) or instantiates (`Extern` empty) the
/// snapshot I/O of one engine type.
#define NGLTS_SNAPSHOT_IO(Real, W, Extern)                                                 \
  Extern template void saveSnapshot<Real, W>(const std::string&, std::uint64_t,            \
                                             std::uint64_t, std::uint64_t,                 \
                                             const solver::Simulation<Real, W>*);          \
  Extern template SnapshotInfo loadSnapshot<Real, W>(const std::string&,                   \
                                                     solver::Simulation<Real, W>&);

NGLTS_FOR_EACH_ENGINE_TYPE(NGLTS_SNAPSHOT_IO, extern)

} // namespace nglts::batch
