#pragma once
// Memoization of the preprocessing pipeline (pipeline.hpp) for batch /
// ensemble execution: the expensive products — velocity-aware mesh,
// materials, CFL steps, clustering (incl. the lambda sweep) and partition —
// are cached behind a content-hash of the *cache-relevant*
// subset of `PipelineConfig` plus a caller-supplied velocity-model key.
//
// Cache-relevant means: every field that influences any byte of the
// `PipelineResult`. Receivers are not part of the config at all — they are
// passive observers the caller binds after preprocessing. The bug class
// to avoid (a hash that silently ignores a relevant field) is cache
// poisoning: two different configs would share one result. tests/
// test_pipeline.cpp pins golden key values and asserts every relevant field
// perturbs the key.
//
// The key is a plain FNV-1a 64 over the fields' canonical little-endian
// byte encodings (doubles by IEEE-754 bit pattern with -0 folded to +0), so
// it is stable across runs, builds and platforms — safe to persist in
// checkpoint snapshots (batch/checkpoint.hpp) as a batch fingerprint.
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "pre/pipeline.hpp"

namespace nglts::pre {

/// Incremental FNV-1a 64 hasher over canonical field encodings. `f64` folds
/// -0.0 to +0.0 so semantically equal configs hash equally.
class ConfigHasher {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))); }
  void boolean(bool v) { u64(v ? 1 : 0); }
  void f64(double v);

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull; ///< FNV-1a 64 offset basis
};

/// Hash a double the way `ConfigHasher::f64` does (helper for model keys).
std::uint64_t hashDouble(double v);

/// Content-hash of the cache-relevant `PipelineConfig` subset: domain
/// extents, meshing rule (elements/wavelength, frequency, edge bounds,
/// jitter), discretization (order, mechanisms, cfl), clustering
/// (numClusters, autoLambda, lambda), partitioning (numPartitions,
/// freeSurfaceTop) and the scenario-ingestion content
/// hashes (meshContentHash, faultContentHash) — combined with `modelKey`,
/// the caller's hash of the velocity-model parameters.
std::uint64_t pipelineCacheKey(const PipelineConfig& cfg, std::uint64_t modelKey = 0);

/// FNV-1a 64 over a file's raw bytes — the value callers put into
/// `PipelineConfig::meshContentHash` / `faultContentHash`, keeping the cache
/// key content-addressed (a renamed file hits, an edited file misses).
/// Throws `std::invalid_argument` when the file cannot be read.
std::uint64_t fileContentKey(const std::string& path);

/// In-process memoization of `runPipeline` keyed on `pipelineCacheKey`.
/// Results are immutable and shared; callers copy what they mutate (the
/// solver engine takes mesh/materials by value). Not thread-safe — the
/// batch driver is a single-threaded request loop.
class PipelineCache {
 public:
  /// The cached result for (cfg, modelKey), building it on a miss.
  /// `model` must match `modelKey` — the cache cannot verify this.
  std::shared_ptr<const PipelineResult> get(const seismo::VelocityModel& model,
                                            const PipelineConfig& cfg,
                                            std::uint64_t modelKey = 0);

  /// Times `runPipeline` actually ran (tests assert preprocessing is
  /// executed once per distinct configuration, not once per request).
  idx_t builds() const { return builds_; }
  /// Times a request was served from the cache.
  idx_t hits() const { return hits_; }

 private:
  std::unordered_map<std::uint64_t, std::shared_ptr<const PipelineResult>> cache_;
  idx_t builds_ = 0;
  idx_t hits_ = 0;
};

} // namespace nglts::pre
