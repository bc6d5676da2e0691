#pragma once
// Seismogram misfits. E is the paper's formula (Sec. VII-B):
//   E = sum_j (s_j - sr_j)^2 / sum_j (sr_j)^2.
#include <vector>

#include "common/types.hpp"

namespace nglts::seismo {

/// Relative energy misfit of a signal vs. a reference (paper's E).
double energyMisfit(const std::vector<double>& signal, const std::vector<double>& reference);

/// Root-mean-square difference.
double rmsDifference(const std::vector<double>& a, const std::vector<double>& b);

/// Peak absolute amplitude; NaN when any sample is NaN (a blown-up run
/// must not read as a quiet one).
double peakAmplitude(const std::vector<double>& a);

} // namespace nglts::seismo
