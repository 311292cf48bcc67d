// Knapsack solvers used by MRIS (Section 5.1 / 6.1).
//
// MRIS needs *constraint approximation*: a selection whose total profit is
// at least the optimal profit at capacity zeta, while being allowed to use
// slightly more capacity.  Two backends are provided:
//
//  * CADP (Constraint-Approximate Dynamic Programming, the paper's choice):
//    Ibarra–Kim size scaling with K = eps * zeta / n; exact DP on scaled
//    sizes.  Profit >= OPT(zeta); size <= (1 + eps) * zeta; O(n^2 / eps)
//    time, O(n / eps) memory (divide-and-conquer reconstruction).
//
//  * GREEDY (Remark 1): sort by profit density, take the prefix through the
//    first non-fitting item.  Profit >= OPT(zeta); size <= zeta + max
//    chosen v_j <= 2 * zeta; O(n log n) time.  In MRIS every candidate has
//    v_j <= zeta / M, so the greedy meets Lemma 6.1's (1 + eps) * zeta
//    whenever M >= 1 / eps (THEORY.md).
//
// Also provided: exact pseudo-polynomial DP (integer sizes) and exhaustive
// search, both used as oracles in tests.
#pragma once

#include <cstdint>
#include <vector>

namespace mris::knapsack {

struct Item {
  double size = 0.0;    ///< v_j = p_j * u_j in MRIS
  double profit = 0.0;  ///< w_j in MRIS
  std::int32_t tag = -1;  ///< caller-defined identity (JobId in MRIS)
};

struct Selection {
  std::vector<std::int32_t> tags;  ///< tags of selected items
  double total_profit = 0.0;
  double total_size = 0.0;
};

/// Exhaustive 2^n search; exact within `capacity`.  Requires n <= 30.
Selection solve_bruteforce(const std::vector<Item>& items, double capacity);

/// Exact 0/1 knapsack via DP over integer sizes.  Every item size and the
/// capacity must be non-negative integers (checked); O(n * capacity).
Selection solve_exact_dp(const std::vector<Item>& items,
                         std::int64_t capacity);

/// Exact 0/1 knapsack via depth-first branch and bound with the fractional
/// (Dantzig) relaxation as the upper bound.  Handles real-valued sizes —
/// unlike solve_exact_dp — and solves far larger instances than
/// solve_bruteforce.  Throws std::runtime_error if the search exceeds
/// `max_nodes` (hard instances exist; the bound keeps typical ones tiny).
Selection solve_branch_and_bound(const std::vector<Item>& items,
                                 double capacity,
                                 std::size_t max_nodes = 10'000'000);

/// CADP — profit >= OPT(capacity), size <= (1 + eps) * capacity.
/// eps must be in (0, 1) per the paper; throws std::invalid_argument else.
Selection solve_cadp(const std::vector<Item>& items, double capacity,
                     double eps);

/// Greedy constraint approximation — profit >= OPT(capacity),
/// size <= capacity + the largest selected item size (<= 2 * capacity).
/// Items with size > capacity are skipped (they cannot be in the
/// capacity-zeta optimum).
Selection solve_greedy_constraint(const std::vector<Item>& items,
                                  double capacity);

/// Classic greedy 1/2-approximation *within* capacity: better of the
/// density-ordered feasible prefix or the single best item.  Not used by
/// MRIS (no profit-dominance guarantee) but handy as a baseline and oracle.
Selection solve_greedy_half(const std::vector<Item>& items, double capacity);

/// Pluggable backend selector for MRIS configuration.
enum class Backend {
  kCadp,
  kGreedyConstraint,
};

/// Dispatches to solve_cadp or solve_greedy_constraint.
Selection solve_constraint_approx(Backend backend,
                                  const std::vector<Item>& items,
                                  double capacity, double eps);

/// Human-readable backend name ("CADP" / "GREEDY").
const char* backend_name(Backend backend);

}  // namespace mris::knapsack
