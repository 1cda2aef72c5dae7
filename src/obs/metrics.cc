// Out-of-line support for the observability layer: TSC calibration.

#include "obs/metrics.h"

#include <chrono>

namespace mv3c::obs {

namespace {

double CalibrateTicksPerNs() {
  using clock = std::chrono::steady_clock;
  // Spin ~2 ms against steady_clock; the TSC on every supported platform is
  // constant-rate (constant_tsc), so one calibration serves the process.
  const clock::time_point t0 = clock::now();
  const uint64_t c0 = TscNow();
  clock::time_point t1;
  do {
    t1 = clock::now();
  } while (t1 - t0 < std::chrono::milliseconds(2));
  const uint64_t c1 = TscNow();
  const double ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count();
  const double rate = static_cast<double>(c1 - c0) / ns;
  // A TSC that went backwards or a clock that stalled would yield garbage;
  // fall back to 1 tick == 1 ns rather than divide by nonsense.
  return (rate > 0.0 && rate < 1e3) ? rate : 1.0;
}

}  // namespace

double TscTicksPerNs() {
  static const double rate = CalibrateTicksPerNs();
  return rate;
}

}  // namespace mv3c::obs
