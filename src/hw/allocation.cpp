#include "hw/allocation.hpp"

#include <algorithm>
#include <cassert>

namespace perfcloud::hw {

void weighted_fair_allocate(double capacity, std::span<const Claim> claims,
                            std::span<double> granted, FairShareScratch& scratch) {
  const std::size_t n = claims.size();
  assert(granted.size() == n);
  std::fill(granted.begin(), granted.end(), 0.0);
  if (n == 0 || capacity <= 0.0) return;

  std::vector<double>& want = scratch.want;
  std::vector<std::size_t>& active = scratch.active;
  want.resize(n);
  active.clear();
  for (std::size_t i = 0; i < n; ++i) {
    assert(claims[i].demand >= 0.0);
    assert(claims[i].weight > 0.0);
    want[i] = std::min(claims[i].demand, std::max(0.0, claims[i].cap));
    if (granted[i] < want[i]) active.push_back(i);
  }

  // `active` holds exactly the claimants still short of their want, in
  // ascending index order, so every round sums the same doubles in the same
  // order as a scan over all n would.
  double remaining = capacity;
  // Each round freezes at least one claimant, so at most n rounds.
  for (std::size_t round = 0; round < n; ++round) {
    double active_weight = 0.0;
    for (const std::size_t i : active) active_weight += claims[i].weight;
    if (active_weight <= 0.0 || remaining <= 1e-15) break;

    bool any_frozen = false;
    double handed_out = 0.0;
    std::size_t kept = 0;
    for (const std::size_t i : active) {
      const double share = remaining * claims[i].weight / active_weight;
      const double room = want[i] - granted[i];
      if (share >= room) {
        granted[i] = want[i];
        handed_out += room;
        any_frozen = true;
      } else {
        granted[i] += share;
        handed_out += share;
        if (granted[i] < want[i]) active[kept++] = i;
      }
    }
    active.resize(kept);
    remaining -= handed_out;
    if (!any_frozen) break;  // everyone got exactly their proportional share
  }
}

}  // namespace perfcloud::hw
