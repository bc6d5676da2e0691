#pragma once
// Receivers: pointwise seismogram recording at the containing element's
// *local* time levels (each LTS element records at its own cadence, the
// series is resampled for comparisons), one trace per fused lane.
#include <array>
#include <vector>

#include "common/types.hpp"

namespace nglts::seismo {

struct Seismogram {
  std::vector<double> times;
  /// values[sample][quantity] with the 9 elastic quantities.
  std::vector<std::array<double, kElasticVars>> values;

  std::size_t size() const { return times.size(); }
};

/// Linear-interpolation resampling onto a uniform grid [0, tEnd] with
/// `samples` points for one quantity.
std::vector<double> resample(const Seismogram& s, int_t quantity, double tEnd, idx_t samples);

struct Receiver {
  std::array<double, 3> position;
  idx_t element = -1;                 ///< containing element, the caller's mesh id
  std::vector<double> basisValues;    ///< basis functions at the receiver point
  std::vector<Seismogram> traces;     ///< one per fused lane
};

} // namespace nglts::seismo
