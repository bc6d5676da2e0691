#include "pre/pipeline_cache.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/log.hpp"

namespace nglts::pre {

void ConfigHasher::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull; // FNV-1a 64 prime
  }
}

void ConfigHasher::u64(std::uint64_t v) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
  bytes(le, 8);
}

void ConfigHasher::f64(double v) {
  if (v == 0.0) v = 0.0; // fold -0.0 to +0.0
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

std::uint64_t hashDouble(double v) {
  ConfigHasher h;
  h.f64(v);
  return h.digest();
}

std::uint64_t pipelineCacheKey(const PipelineConfig& cfg, std::uint64_t modelKey) {
  ConfigHasher h;
  // Field order is part of the golden contract pinned by test_pipeline.cpp —
  // append new cache-relevant fields at the END and update the golden rows.
  for (double v : cfg.lo) h.f64(v);
  for (double v : cfg.hi) h.f64(v);
  h.f64(cfg.elementsPerWavelength);
  h.f64(cfg.maxFrequency);
  h.f64(cfg.minEdge);
  h.f64(cfg.maxEdge);
  h.f64(cfg.jitter);
  h.i32(cfg.order);
  h.i32(cfg.mechanisms);
  h.f64(cfg.cfl);
  h.i32(cfg.numClusters);
  h.boolean(cfg.autoLambda);
  // A fixed lambda only matters when the sweep is off; folding it out keeps
  // autoLambda runs from fragmenting the cache over an ignored field.
  h.f64(cfg.autoLambda ? 0.0 : cfg.lambda);
  h.i32(cfg.numPartitions);
  h.boolean(cfg.freeSurfaceTop);
  h.u64(modelKey);
  // Scenario-ingestion content hashes (both 0 for built-in meshes/sources;
  // see the PipelineConfig field docs). The mesh hash IS the mesh identity
  // when an external .msh replaces the meshing rule; the fault hash shapes
  // no pipeline product but must invalidate checkpoint fingerprints.
  h.u64(cfg.meshContentHash);
  h.u64(cfg.faultContentHash);
  return h.digest();
}

std::uint64_t fileContentKey(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot read '" + path + "' for content hashing");
  ConfigHasher h;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0)
    h.bytes(buf, static_cast<std::size_t>(in.gcount()));
  return h.digest();
}

std::shared_ptr<const PipelineResult> PipelineCache::get(const seismo::VelocityModel& model,
                                                         const PipelineConfig& cfg,
                                                         std::uint64_t modelKey) {
  const std::uint64_t key = pipelineCacheKey(cfg, modelKey);
  if (auto it = cache_.find(key); it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++builds_;
  auto result = std::make_shared<PipelineResult>(runPipeline(model, cfg));
  NGLTS_LOG_INFO << "pipeline cache: built key " << key << " (" << result->mesh.numElements()
                 << " elements, " << builds_ << " builds / " << hits_ << " hits)";
  cache_.emplace(key, result);
  return result;
}

} // namespace nglts::pre
