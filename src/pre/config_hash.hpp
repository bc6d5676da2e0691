#pragma once
// Content identities for the batch engine's checkpoint fingerprint
// (batch/batch_engine.hpp): an FNV-1a 64 hasher over canonical field
// encodings, the hash of every `PipelineConfig` field that shapes a
// `PipelineResult`, and the hash of a file's bytes.
//
// Every identity is computed from content, never declared by a caller: a
// field the hash silently ignores would let a snapshot restore into a
// different problem. tests/test_pipeline.cpp pins golden key values and
// asserts every field perturbs the key.
//
// The hash runs over the fields' canonical little-endian byte encodings
// (doubles by IEEE-754 bit pattern with -0 folded to +0), so it is stable
// across runs, builds and platforms — safe to persist in checkpoint
// snapshots (batch/checkpoint.hpp).
#include <cstdint>
#include <string>

#include "pre/pipeline.hpp"

namespace nglts::pre {

/// Incremental FNV-1a 64 hasher over canonical field encodings. `f64` folds
/// -0.0 to +0.0 so semantically equal configs hash equally.
class ConfigHasher {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))); }
  void boolean(bool v) { u64(v ? 1 : 0); }
  void f64(double v);

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull; ///< FNV-1a 64 offset basis
};

/// Content-hash of the `PipelineConfig` fields that shape a `PipelineResult`:
/// domain extents, meshing rule (elements/wavelength, frequency, edge
/// bounds, jitter), discretization (order, mechanisms, cfl), clustering
/// (numClusters, autoLambda, lambda) and partitioning (numPartitions,
/// freeSurfaceTop). The `meshFile` path is not hashed: a caller that reads
/// a mesh file hashes its bytes with `fileContentKey`.
std::uint64_t pipelineConfigKey(const PipelineConfig& cfg);

/// FNV-1a 64 over a file's raw bytes: a renamed file keeps its key, an
/// edited one changes it. Throws `std::invalid_argument` when the file
/// cannot be read.
std::uint64_t fileContentKey(const std::string& path);

} // namespace nglts::pre
