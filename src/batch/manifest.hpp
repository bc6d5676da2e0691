#pragma once
// Batch manifest: the `nglts batch --batch-manifest FILE` input format.
// One request per line, whitespace-separated:
//
//   id  source_scale  material_scale  recv_dx  recv_dy  recv_dz
//
// `id` is a free-form token (no whitespace); the trailing receiver-offset
// triple may be omitted (defaults to 0 0 0), as may material_scale
// (defaults to 1). Blank lines and `#` comments are ignored. Every number
// must be finite. Parse errors throw `std::invalid_argument`
// ("<source>:<line>: message"), like the fault and Gmsh readers, so the CLI
// reports them as usage errors.
#include <istream>
#include <string>
#include <vector>

#include "batch/batch_engine.hpp"

namespace nglts::batch {

/// Parse a manifest from a stream; `name` labels error messages.
std::vector<ScenarioRequest> parseManifest(std::istream& in, const std::string& name);

/// Parse a manifest file; throws `std::invalid_argument` if unreadable.
std::vector<ScenarioRequest> parseManifestFile(const std::string& path);

} // namespace nglts::batch
