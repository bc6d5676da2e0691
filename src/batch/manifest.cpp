#include "batch/manifest.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace nglts::batch {

namespace {

double parseNumber(const std::string& tok, const std::string& name, idx_t line,
                   const std::string& field) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(tok, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != tok.size() || !std::isfinite(v))
    throw std::invalid_argument(name + ":" + std::to_string(line) + ": bad " + field + " '" +
                                tok + "' (expected a finite number)");
  return v;
}

} // namespace

std::vector<ScenarioRequest> parseManifest(std::istream& in, const std::string& name) {
  std::vector<ScenarioRequest> requests;
  std::string raw;
  idx_t lineNo = 0;
  while (std::getline(in, raw)) {
    ++lineNo;
    if (const auto hash = raw.find('#'); hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    std::vector<std::string> tok;
    for (std::string t; line >> t;) tok.push_back(t);
    if (tok.empty()) continue;
    if (tok.size() == 4 || tok.size() == 5 || tok.size() > 6)
      throw std::invalid_argument(
          name + ":" + std::to_string(lineNo) +
          ": expected 'id [source_scale [material_scale [dx dy dz]]]', got " +
          std::to_string(tok.size()) + " fields");
    ScenarioRequest req;
    req.id = tok[0];
    if (tok.size() >= 2) req.sourceScale = parseNumber(tok[1], name, lineNo, "source_scale");
    if (tok.size() >= 3) req.materialScale = parseNumber(tok[2], name, lineNo, "material_scale");
    if (tok.size() == 6) {
      req.receiverOffset = {parseNumber(tok[3], name, lineNo, "recv_dx"),
                            parseNumber(tok[4], name, lineNo, "recv_dy"),
                            parseNumber(tok[5], name, lineNo, "recv_dz")};
    }
    if (!(req.materialScale > 0.0))
      throw std::invalid_argument(name + ":" + std::to_string(lineNo) +
                                  ": material_scale must be > 0");
    requests.push_back(std::move(req));
  }
  if (requests.empty())
    throw std::invalid_argument(name + ": manifest contains no requests");
  return requests;
}

std::vector<ScenarioRequest> parseManifestFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open batch manifest '" + path + "'");
  return parseManifest(in, path);
}

} // namespace nglts::batch
