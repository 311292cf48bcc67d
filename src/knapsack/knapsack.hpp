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
//    Integral profits make the DP cheaper without changing a bit.  When
//    every live profit (positive, scaled size within capacity) is an
//    integer and max profit * live count <= 2^53, every value the DP forms
//    is an integer <= 2^53, so every addition and comparison is exact.  A
//    table is then the exact optimum of its range's multiset of (scaled
//    size, profit), whatever order the items are relaxed in.  The DP sums
//    zero-size items into the row's start value and relaxes each distinct
//    (s, p) of multiplicity m once per binary-split piece (s * 2^k,
//    p * 2^k): O(n * cap) becomes O(classes * log m * cap), and the tables,
//    the recovery's split points and the selected tags are the per-item
//    DP's.  Any other input (a fractional profit, or profits that could sum
//    past 2^53) runs one pass per item in index order, as before.  MRIS's
//    profits are job weights, integers on the Azure-like and Azure traces.
//
//    Either way a pass relaxes only up to the table's frontier: after
//    passes of total size T the row is constant on c >= T (a pass there
//    stores max(V, V + p) == V + p, in IEEE arithmetic too), so pass i
//    relaxes c in [s, min(cap, T_i)] and the cells above are filled with
//    the frontier's value.  The exact branch runs its passes in ascending
//    size order, which keeps the frontier low longest.  It also returns a
//    range whose live items all fit the range's capacity without building
//    a table: positive profits and exact sums make the full set the only
//    optimum.  The per-item branch cannot: a sum may round a small profit
//    away (2^53 + 0.5 == 2^53), and the table's first maximizer then
//    leaves that item out.
//
//    The exact branch also solves most splits without the capacity tables.
//    recover() needs only best_c, the first maximizer of left[c] +
//    right[cap - c].  Let S_X and P_X be the scaled size and profit of side
//    X's live items (size <= the node's cap), Delta = S_L + S_R - cap, and
//    G_X[q] the largest scaled size of a subset of X with profit <= q (the
//    class DP with size and profit swapped).  Then left[c] = P_L - min{q :
//    G_L[q] >= S_L - c}, so the best split removes the least profit Q* =
//    min{q1 + q2 : G_L[q1] + G_R[q2] >= Delta} (a two-pointer sweep), and
//    best_c = S_L - max{G_L[q1] : q1 <= Q*, G_L[q1] + G_R[Q* - q1] >=
//    Delta}: the smallest c removes the most from the left.  G needs only
//    q <= U, the profit a density-greedy feasible set leaves out (U - Q* <=
//    the largest profit), so its tables are U + 1 cells wide instead of
//    cap + 1.  MRIS takes most of its pending jobs, so U is small: on the
//    largest perfbench solve Q* = 574 against cap = 18.5k.  A node falls
//    back to the forward tables when U > cap, or when S_L + S_R > 2^53
//    (double sizes would round); the per-item branch always uses them.
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
  /// DP cells the solve relaxed: sum of (top - s + 1) over its dp_relax
  /// passes, top the pass's frontier, in capacity-indexed tables and in
  /// the removal window's profit-indexed ones (CADP and the exact DP; 0
  /// for the other solvers).
  /// Deterministic, so a work counter rather than a timing.
  std::uint64_t dp_cells = 0;
};

/// How the calling thread's CADP / exact-DP solves found their recover()
/// split points: `window` by the removal window, `table` by the forward
/// capacity tables.  With `cross_check` set, every window split is also
/// computed from the forward tables and a mismatch fails an
/// MRIS_INVARIANT (dp_cells leaves the check's cells out).  A test hook:
/// nothing in the solvers' results depends on it.
struct SplitAudit {
  bool cross_check = false;
  std::uint64_t window = 0;
  std::uint64_t table = 0;
};
SplitAudit& split_audit();

/// Exhaustive 2^n search; exact within `capacity`.  Requires n <= 30.
Selection solve_bruteforce(const std::vector<Item>& items, double capacity);

/// Exact 0/1 knapsack via DP over integer sizes.  Every item size must be a
/// non-negative integer, every profit finite and capacity at most 2^62
/// (checked; std::invalid_argument); O(n * capacity).  Shares CADP's DP,
/// including its one pass per (size, profit) class on integral profits.
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
/// eps must be in (0, 1) per the paper, capacity and every item's size and
/// profit finite, sizes non-negative, and capacity / K (= n / eps) at most
/// 2^62; throws std::invalid_argument else.  Sizes whose scaled value
/// exceeds the scaled capacity are never selected.
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
