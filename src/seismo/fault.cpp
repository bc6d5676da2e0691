#include "seismo/fault.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <memory>
#include <sstream>
#include <stdexcept>

namespace nglts::seismo {

namespace {

class FaultParser {
 public:
  FaultParser(std::istream& in, const std::string& name) : in_(in), name_(name) {}

  [[noreturn]] void fail(idx_t line, const std::string& msg) const {
    throw std::invalid_argument(name_ + ":" + std::to_string(line) + ": " + msg);
  }
  [[noreturn]] void fail(const std::string& msg) const { fail(line_, msg); }

  idx_t line() const { return line_; }

  /// Next non-blank, non-comment line as tokens; false at EOF.
  bool next(std::vector<std::string>& tokens) {
    std::string raw;
    while (std::getline(in_, raw)) {
      ++line_;
      if (!raw.empty() && raw.back() == '\r') raw.pop_back();
      const auto hash = raw.find('#');
      if (hash != std::string::npos) raw.erase(hash);
      tokens.clear();
      std::istringstream is(raw);
      std::string tok;
      while (is >> tok) tokens.push_back(tok);
      if (!tokens.empty()) return true;
    }
    return false;
  }

  double toDouble(const std::string& tok) const {
    try {
      std::size_t pos = 0;
      const double v = std::stod(tok, &pos);
      if (pos == tok.size() && std::isfinite(v)) return v;
    } catch (const std::exception&) {
    }
    fail("invalid number '" + tok + "' (expected a finite number)");
  }

 private:
  std::istream& in_;
  std::string name_;
  idx_t line_ = 0;
};

} // namespace

std::vector<PointSource> FiniteFault::pointSources() const {
  std::vector<PointSource> out;
  out.reserve(subfaults.size());
  for (const Subfault& sf : subfaults)
    out.push_back(momentTensorSource(sf.position, sf.moment,
                                     std::make_shared<PiecewiseLinearStf>(sf.stf, sf.onset)));
  return out;
}

FiniteFault parseFault(std::istream& in, const std::string& name) {
  FaultParser p(in, name);
  FiniteFault fault;

  Subfault current;
  bool open = false, hasPosition = false, hasMoment = false, hasOnset = false;
  idx_t stanzaLine = 0;

  const auto finalize = [&]() {
    if (!open) return;
    if (!hasPosition) p.fail(stanzaLine, "subfault missing 'position'");
    if (!hasMoment) p.fail(stanzaLine, "subfault missing 'moment'");
    if (current.stf.size() < 2)
      p.fail(stanzaLine, "subfault needs at least 2 'stf' samples");
    fault.subfaults.push_back(current);
    current = Subfault{};
    hasPosition = hasMoment = hasOnset = false;
  };

  std::vector<std::string> tokens;
  while (p.next(tokens)) {
    const std::string& key = tokens[0];
    if (key == "subfault") {
      if (tokens.size() != 1) p.fail("'subfault' takes no arguments");
      finalize();
      open = true;
      stanzaLine = p.line();
      continue;
    }
    if (!open) p.fail("'" + key + "' before the first 'subfault'");
    if (key == "position") {
      if (tokens.size() != 4) p.fail("'position' needs 3 values: x y z");
      if (hasPosition) p.fail("duplicate 'position' in subfault");
      for (int a = 0; a < 3; ++a)
        current.position[static_cast<std::size_t>(a)] = p.toDouble(tokens[static_cast<std::size_t>(1 + a)]);
      hasPosition = true;
    } else if (key == "moment") {
      if (tokens.size() != 7) p.fail("'moment' needs 6 values: mxx myy mzz mxy myz mxz");
      if (hasMoment) p.fail("duplicate 'moment' in subfault");
      for (int a = 0; a < 6; ++a)
        current.moment[static_cast<std::size_t>(a)] = p.toDouble(tokens[static_cast<std::size_t>(1 + a)]);
      hasMoment = true;
    } else if (key == "onset") {
      if (tokens.size() != 2) p.fail("'onset' needs 1 value: t");
      if (hasOnset) p.fail("duplicate 'onset' in subfault");
      current.onset = p.toDouble(tokens[1]);
      hasOnset = true;
    } else if (key == "stf") {
      if (tokens.size() != 3) p.fail("'stf' needs 2 values: t v");
      const double t = p.toDouble(tokens[1]);
      if (!current.stf.empty() && !(t > current.stf.back()[0]))
        p.fail("'stf' times must be strictly increasing");
      current.stf.push_back({t, p.toDouble(tokens[2])});
    } else {
      p.fail("unknown directive '" + key +
             "' (expected subfault, position, moment, onset, stf)");
    }
  }
  finalize();
  if (fault.subfaults.empty())
    throw std::invalid_argument(name + ": no subfaults defined");
  return fault;
}

FiniteFault parseFaultFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read fault file '" + path + "'");
  return parseFault(in, path);
}

} // namespace nglts::seismo
