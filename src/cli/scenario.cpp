#include "cli/scenario.hpp"

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace nglts::cli {

const Scenario* findScenario(const std::string& name) {
  for (const Scenario* s : scenarios())
    if (s->name() == name) return s;
  return nullptr;
}

solver::TimeScheme parseScheme(const std::string& s) {
  if (s == "gts") return solver::TimeScheme::kGts;
  if (s == "lts") return solver::TimeScheme::kLtsNextGen;
  if (s == "baseline") return solver::TimeScheme::kLtsBaseline;
  throw std::invalid_argument("unknown scheme '" + s + "' (expected gts | lts | baseline)");
}

std::string schemeName(solver::TimeScheme scheme) {
  switch (scheme) {
    case solver::TimeScheme::kGts: return "gts";
    case solver::TimeScheme::kLtsNextGen: return "lts";
    case solver::TimeScheme::kLtsBaseline: return "baseline";
  }
  return "?";
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

void appendOperatorLine(std::string& out, const solver::OperatorBytes& bytes) {
  appendf(out, "operator data: %.1f MB elastic + %.1f MB anelastic\n", bytes.elastic / 1e6,
          bytes.anelastic / 1e6);
}

void progressf(const ScenarioOptions& opts, const char* fmt, ...) {
  if (opts.quiet) return;
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  std::fputs(buf, stdout);
  std::fflush(stdout);
}

void writeTraceCsv(const std::string& path, double tEnd,
                   const std::vector<std::vector<double>>& columns, const std::string& header) {
  const idx_t samples = columns.empty() ? 0 : static_cast<idx_t>(columns[0].size());
  std::ofstream csv(path);
  csv.precision(17); // round-trip exact doubles (golden-fixture comparisons)
  csv << header << '\n';
  for (idx_t i = 0; i < samples; ++i) {
    csv << tEnd * i / (samples - 1);
    for (const auto& col : columns) csv << ',' << col[i];
    csv << '\n';
  }
  csv.flush();
  if (!csv) throw std::runtime_error("failed to write " + path);
}

} // namespace nglts::cli
