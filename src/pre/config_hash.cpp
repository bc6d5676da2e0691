#include "pre/config_hash.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

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

std::uint64_t pipelineConfigKey(const PipelineConfig& cfg) {
  ConfigHasher h;
  // Field order is part of the golden contract pinned by test_pipeline.cpp —
  // append new fields at the END and update the golden rows.
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
  // two autoLambda configs that differ only in an ignored field equal.
  h.f64(cfg.autoLambda ? 0.0 : cfg.lambda);
  h.i32(cfg.numPartitions);
  h.boolean(cfg.freeSurfaceTop);
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

} // namespace nglts::pre
