#include "seismo/misfit.hpp"

#include <cmath>
#include <stdexcept>

namespace nglts::seismo {

double energyMisfit(const std::vector<double>& signal, const std::vector<double>& reference) {
  if (signal.size() != reference.size())
    throw std::runtime_error("energyMisfit: length mismatch");
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < signal.size(); ++i) {
    const double d = signal[i] - reference[i];
    num += d * d;
    den += reference[i] * reference[i];
  }
  if (den == 0.0) throw std::runtime_error("energyMisfit: zero reference energy");
  return num / den;
}

double rmsDifference(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) throw std::runtime_error("rmsDifference: length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(s / a.size());
}

double peakAmplitude(const std::vector<double>& a) {
  double m = 0.0;
  for (double v : a) {
    if (std::isnan(v)) return v;
    m = std::max(m, std::fabs(v));
  }
  return m;
}

} // namespace nglts::seismo
