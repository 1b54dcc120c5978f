// Slot-indexed AR(1) jitter state shared by the disk and memory models.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "sim/rng.hpp"

namespace perfcloud::hw {

/// One stationary standard-normal AR(1) process per tenant slot, all with
/// the same correlation time.
class Ar1Jitter {
 public:
  explicit Ar1Jitter(double correlation_time) : correlation_time_(correlation_time) {}

  /// Advance slots [0, n) by one step of length dt, drawing one normal per
  /// slot in slot order. Slots seen for the first time start at 0.
  void advance(std::size_t n, double dt, sim::Rng& rng) {
    if (z_.size() < n) z_.resize(n, 0.0);
    const double phi = std::exp(-dt / correlation_time_);
    const double innov = std::sqrt(std::max(0.0, 1.0 - phi * phi));
    for (std::size_t i = 0; i < n; ++i) z_[i] = phi * z_[i] + innov * rng.normal();
  }

  [[nodiscard]] double operator[](std::size_t i) const { return z_[i]; }

 private:
  double correlation_time_;
  std::vector<double> z_;
};

}  // namespace perfcloud::hw
