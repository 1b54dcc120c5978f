// Small statistics helpers shared by the benchmark and its tests:
// linear-interpolation quantiles, the "highest percentile with at least ten
// samples beyond it" rule, and the result fingerprint hash.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile of an unsorted batch, q in [0, 1]. +inf
/// samples sort last, so a quantile that touches one is +inf. Throws on an
/// empty batch: a metric with no samples is a benchmark bug, not a zero.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile of an empty batch");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || xs[lo] == xs[hi]) return xs[lo];
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

/// Samples strictly beyond the `per_10k`/10000 quantile of `n` samples:
/// n - ceil(n * per_10k / 10000), in integer arithmetic so p90 of 100
/// samples has exactly 10 beyond it.
inline std::uint64_t samples_beyond(std::uint64_t n, std::uint32_t per_10k) {
  const std::uint64_t at_or_below = (n * per_10k + 9999) / 10000;
  return n - std::min(n, at_or_below);
}

/// The highest of `candidates_per_10k` (e.g. {9900, 9500, 9000, 5000}) that
/// leaves at least `min_tail` samples beyond it; 0 when none does. A
/// timing is reported as its median plus this percentile.
inline std::uint32_t highest_supported_percentile(std::uint64_t n,
                                                  std::span<const std::uint32_t> candidates_per_10k,
                                                  std::uint64_t min_tail = 10) {
  std::uint32_t best = 0;
  for (const std::uint32_t c : candidates_per_10k) {
    if (c > best && samples_beyond(n, c) >= min_tail) best = c;
  }
  return best;
}

/// FNV-1a over the bit patterns of a sequence of doubles. Two runs with the
/// same fingerprint produced bit-identical values in the same order; -0.0
/// and 0.0 hash differently, as do NaNs with different payloads.
class Fingerprint {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffU;
      hash_ *= kPrime;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t hash_ = kOffset;
};

}  // namespace perfbench
