// Weighted max-min fair allocation with per-claimant caps ("water-filling").
// Shared by the CPU scheduler, the block device, and the memory system.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace perfcloud::hw {

/// One claimant in a fair-share allocation round.
struct Claim {
  double demand = 0.0;  ///< How much the claimant wants this round (>= 0).
  double weight = 1.0;  ///< Proportional-share weight (> 0).
  double cap = 0.0;     ///< Hard upper bound; use a huge value for "none".
};

/// Caller-owned working memory of weighted_fair_allocate. Keep one per
/// call site and reuse it: it grows to the largest claim count seen and
/// then never allocates again. Its contents between calls are meaningless.
struct FairShareScratch {
  std::vector<double> want;          ///< min(demand, cap) per claimant.
  std::vector<std::size_t> active;   ///< Unsatisfied claimants, ascending.
};

/// Distribute `capacity` over the claims by weighted max-min fairness:
/// repeatedly hand every unsatisfied claimant its weight-proportional share,
/// freeze anyone whose demand (or cap) is met, and redistribute the surplus.
/// Writes claim i's grant to `granted[i]`; `granted.size()` must equal
/// `claims.size()`.
///
/// Properties (verified by tests):
///  - no claimant receives more than min(demand, cap);
///  - total allocated = min(capacity, total effective demand);
///  - work-conserving: capacity left over only if everyone is satisfied;
///  - weight-proportional between permanently unsatisfied claimants.
void weighted_fair_allocate(double capacity, std::span<const Claim> claims,
                            std::span<double> granted, FairShareScratch& scratch);

}  // namespace perfcloud::hw
