#include "knapsack/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/simd.hpp"

namespace mris::knapsack {

namespace {

/// recover() holds at most two DP tables live at any recursion depth, so a
/// tiny free-list removes all steady-state allocation from the CADP hot
/// path: MRIS wakeups reuse the same capacity-sized buffers run after run.
std::vector<std::vector<double>>& dp_pool() {
  // Per-thread scratch by construction: no cross-thread sharing to guard,
  // and the buffers' *contents* never affect results (fully overwritten).
  // mris-analyze: allow(ts-global)
  thread_local std::vector<std::vector<double>> pool;
  return pool;
}

std::vector<double> acquire_dp(std::size_t size) {
  auto& pool = dp_pool();
  std::vector<double> dp;
  if (!pool.empty()) {
    dp = std::move(pool.back());
    pool.pop_back();
  }
  dp.assign(size, 0.0);
  return dp;
}

void recycle_dp(std::vector<double>&& dp) {
  dp_pool().push_back(std::move(dp));
}

/// Forward DP table for items[lo, hi): dp[c] = max profit with total
/// (integer) size <= c.  Monotone non-decreasing in c.
std::vector<double> dp_table(const std::vector<Item>& items,
                             const std::vector<std::int64_t>& sizes,
                             std::size_t lo, std::size_t hi,
                             std::int64_t cap) {
  std::vector<double> dp = acquire_dp(static_cast<std::size_t>(cap) + 1);
  for (std::size_t i = lo; i < hi; ++i) {
    const std::int64_t s = sizes[i];
    const double p = items[i].profit;
    if (s > cap || p <= 0.0) continue;
    // Branchless descending relaxation dp[c] = max(dp[c], dp[c-s] + p) for
    // c = cap..s over the contiguous pooled row; bit-identical to the
    // scalar compare-and-store loop (see util/simd.hpp).
    util::simd::dp_relax(dp.data(), static_cast<std::size_t>(cap),
                         static_cast<std::size_t>(s), p);
  }
  return dp;
}

/// Hirschberg-style divide-and-conquer solution recovery: O(n * cap) time,
/// O(cap) extra memory, no per-item parent bitsets.
///
/// `live_prefix[i]` counts items in [0, i) the DP could ever take (positive
/// profit, size within the top-level capacity).  Ranges with zero live
/// items return immediately and ranges with one resolve as a leaf — both
/// provably recover the same selection the plain recursion would, while
/// skipping the dp_table passes over dead spans.  The split index stays
/// relative to the ORIGINAL item array: compacting dead items out would
/// move the midpoints, and with tied profits the first-maximizer best_c
/// rule then recovers a different (equal-profit) optimum — breaking
/// byte-identical schedules.
void recover(const std::vector<Item>& items,
             const std::vector<std::int64_t>& sizes,
             const std::vector<std::size_t>& live_prefix, std::size_t lo,
             std::size_t hi, std::int64_t cap,
             std::vector<std::size_t>& out) {
  if (lo >= hi || cap < 0) return;
  const std::size_t live = live_prefix[hi] - live_prefix[lo];
  if (live == 0) return;
  if (live == 1) {
    // A lone live item is selected iff it fits the range's capacity; the
    // plain recursion funnels exactly cap (or the item's size) to it.
    std::size_t i = lo;
    while (live_prefix[i + 1] == live_prefix[lo]) ++i;
    if (sizes[i] <= cap) out.push_back(i);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  std::int64_t best_c = 0;
  {
    std::vector<double> left = dp_table(items, sizes, lo, mid, cap);
    std::vector<double> right = dp_table(items, sizes, mid, hi, cap);
    double best = -1.0;
    for (std::int64_t c = 0; c <= cap; ++c) {
      const double v = left[static_cast<std::size_t>(c)] +
                       right[static_cast<std::size_t>(cap - c)];
      if (v > best) {
        best = v;
        best_c = c;
      }
    }
    recycle_dp(std::move(left));
    recycle_dp(std::move(right));
  }  // return the tables to the pool before recursing
  recover(items, sizes, live_prefix, lo, mid, best_c, out);
  recover(items, sizes, live_prefix, mid, hi, cap - best_c, out);
}

Selection finish(const std::vector<Item>& items,
                 const std::vector<std::size_t>& indices) {
  Selection sel;
  sel.tags.reserve(indices.size());
  for (std::size_t i : indices) {
    sel.tags.push_back(items[i].tag);
    sel.total_profit += items[i].profit;
    sel.total_size += items[i].size;
  }
  return sel;
}

Selection solve_integer_core(const std::vector<Item>& items,
                             const std::vector<std::int64_t>& sizes,
                             std::int64_t cap) {
  // Census of items the DP could ever take, taken before any table is
  // sized: an all-dead instance never allocates, and dead spans inside the
  // recursion are skipped via the prefix counts.
  std::vector<std::size_t> live_prefix(items.size() + 1, 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const bool live = sizes[i] <= cap && items[i].profit > 0.0;
    live_prefix[i + 1] = live_prefix[i] + (live ? 1 : 0);
  }
  if (live_prefix.back() == 0) return {};
  std::vector<std::size_t> chosen;
  recover(items, sizes, live_prefix, 0, items.size(), cap, chosen);
  return finish(items, chosen);
}

/// Density comparison profit_a/size_a > profit_b/size_b without division
/// (size 0 counts as infinite density).  Ties broken by tag for determinism.
bool denser(const Item& a, const Item& b) {
  const double lhs = a.profit * b.size;
  const double rhs = b.profit * a.size;
  if (lhs != rhs) return lhs > rhs;
  if (a.size != b.size) return a.size < b.size;
  return a.tag < b.tag;
}

}  // namespace

Selection solve_bruteforce(const std::vector<Item>& items, double capacity) {
  const std::size_t n = items.size();
  if (n > 30) {
    throw std::invalid_argument("solve_bruteforce: n must be <= 30");
  }
  double best_profit = 0.0;
  std::uint64_t best_mask = 0;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    double size = 0.0;
    double profit = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::uint64_t{1} << i)) {
        size += items[i].size;
        profit += items[i].profit;
      }
    }
    if (size <= capacity && profit > best_profit) {
      best_profit = profit;
      best_mask = mask;
    }
  }
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < n; ++i) {
    if (best_mask & (std::uint64_t{1} << i)) chosen.push_back(i);
  }
  return finish(items, chosen);
}

Selection solve_exact_dp(const std::vector<Item>& items,
                         std::int64_t capacity) {
  if (capacity < 0) return {};
  std::vector<std::int64_t> sizes(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double s = items[i].size;
    if (s < 0.0 || s != std::floor(s)) {
      throw std::invalid_argument(
          "solve_exact_dp: item sizes must be non-negative integers");
    }
    sizes[i] = static_cast<std::int64_t>(s);
  }
  return solve_integer_core(items, sizes, capacity);
}

namespace {

/// DFS state for branch and bound over density-sorted items.
struct BnbContext {
  const std::vector<Item>* items;  // density-sorted
  double capacity;
  std::size_t max_nodes;
  std::size_t nodes = 0;

  double best_profit = 0.0;
  std::vector<bool> best_take;
  std::vector<bool> take;

  /// Fractional (Dantzig) upper bound for the subproblem starting at
  /// `index` with `slack` remaining capacity.
  double fractional_bound(std::size_t index, double slack) const {
    double bound = 0.0;
    for (std::size_t i = index; i < items->size(); ++i) {
      const Item& it = (*items)[i];
      if (it.size <= slack) {
        slack -= it.size;
        bound += it.profit;
      } else {
        if (it.size > 0.0) bound += it.profit * (slack / it.size);
        break;
      }
    }
    return bound;
  }

  void dfs(std::size_t index, double slack, double profit) {
    if (++nodes > max_nodes) {
      throw std::runtime_error(
          "solve_branch_and_bound: node budget exceeded");
    }
    if (profit > best_profit) {
      best_profit = profit;
      best_take = take;
    }
    if (index >= items->size()) return;
    if (profit + fractional_bound(index, slack) <= best_profit) return;

    const Item& it = (*items)[index];
    if (it.size <= slack && it.profit > 0.0) {
      take[index] = true;
      dfs(index + 1, slack - it.size, profit + it.profit);
      take[index] = false;
    }
    dfs(index + 1, slack, profit);
  }
};

}  // namespace

Selection solve_branch_and_bound(const std::vector<Item>& items,
                                 double capacity, std::size_t max_nodes) {
  if (items.empty() || capacity <= 0.0) return {};
  std::vector<Item> sorted = items;
  std::sort(sorted.begin(), sorted.end(), denser);

  BnbContext ctx;
  ctx.items = &sorted;
  ctx.capacity = capacity;
  ctx.max_nodes = max_nodes;
  ctx.take.assign(sorted.size(), false);
  ctx.best_take.assign(sorted.size(), false);
  ctx.dfs(0, capacity, 0.0);

  Selection sel;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (ctx.best_take[i]) {
      sel.tags.push_back(sorted[i].tag);
      sel.total_profit += sorted[i].profit;
      sel.total_size += sorted[i].size;
    }
  }
  return sel;
}

Selection solve_cadp(const std::vector<Item>& items, double capacity,
                     double eps) {
  if (!(eps > 0.0) || !(eps < 1.0)) {
    throw std::invalid_argument("solve_cadp: eps must lie in (0, 1)");
  }
  if (items.empty() || capacity <= 0.0) return {};
  const auto n = static_cast<double>(items.size());
  // Ibarra–Kim scaling: K = eps * zeta / n, so that the total rounding
  // error n*K equals eps*zeta (Lemma 6.1).
  const double K = eps * capacity / n;
  std::vector<std::int64_t> sizes(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].size < 0.0) {
      throw std::invalid_argument("solve_cadp: negative item size");
    }
    sizes[i] = static_cast<std::int64_t>(std::floor(items[i].size / K));
  }
  const auto cap = static_cast<std::int64_t>(std::floor(capacity / K));
  // Zero-profit / oversize items are written off before any DP table is
  // sized (solve_integer_core's live census); they cannot be selected, and
  // pruning them there — rather than compacting the item array here —
  // keeps the D&C split points, and hence tie-breaking among equal-profit
  // optima, identical to the unpruned recursion.
  Selection sel = solve_integer_core(items, sizes, cap);
  // Lemma 6.1: rounding every size down by at most K = eps*zeta/n lets the
  // true total exceed zeta by at most n*K = eps*zeta, never more.
  MRIS_ENSURE(sel.total_size <= (1.0 + eps) * capacity * (1.0 + 1e-12),
              "solve_cadp: selection exceeds the (1+eps)*zeta capacity "
              "guarantee of Lemma 6.1");
  return sel;
}

Selection solve_greedy_constraint(const std::vector<Item>& items,
                                  double capacity) {
  if (items.empty() || capacity <= 0.0) return {};
  // Items larger than zeta cannot be in the capacity-zeta optimum.
  std::vector<std::size_t> order;
  order.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].size <= capacity && items[i].profit > 0.0) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return denser(items[a], items[b]);
  });
  std::vector<std::size_t> chosen;
  double size = 0.0;
  double vmax = 0.0;
  for (std::size_t i : order) {
    chosen.push_back(i);
    size += items[i].size;
    vmax = std::max(vmax, items[i].size);
    // Include the first item that overflows zeta (the fractional-relaxation
    // dominance argument of Remark 1), then stop: the prefix before it fits
    // zeta, so total <= zeta + max chosen v_j (<= 2 * zeta).
    if (size > capacity) break;
  }
  Selection sel = finish(items, chosen);
  MRIS_ENSURE(sel.total_size <= (capacity + vmax) * (1.0 + 1e-12),
              "solve_greedy_constraint: selection exceeds zeta + max chosen "
              "v_j (Remark 1; Lemma 6.1 with eps = max v_j / zeta)");
  return sel;
}

Selection solve_greedy_half(const std::vector<Item>& items, double capacity) {
  if (items.empty() || capacity <= 0.0) return {};
  std::vector<std::size_t> order;
  order.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].size <= capacity && items[i].profit > 0.0) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return denser(items[a], items[b]);
  });
  std::vector<std::size_t> prefix;
  double size = 0.0;
  for (std::size_t i : order) {
    if (size + items[i].size > capacity) break;
    prefix.push_back(i);
    size += items[i].size;
  }
  // Best single feasible item.
  std::size_t best_single = items.size();
  for (std::size_t i : order) {
    if (best_single == items.size() ||
        items[i].profit > items[best_single].profit) {
      best_single = i;
    }
  }
  const Selection a = finish(items, prefix);
  if (best_single == items.size()) return a;
  const Selection b = finish(items, {best_single});
  return a.total_profit >= b.total_profit ? a : b;
}

Selection solve_constraint_approx(Backend backend,
                                  const std::vector<Item>& items,
                                  double capacity, double eps) {
  switch (backend) {
    case Backend::kCadp:
      return solve_cadp(items, capacity, eps);
    case Backend::kGreedyConstraint:
      return solve_greedy_constraint(items, capacity);
  }
  throw std::logic_error("solve_constraint_approx: unknown backend");
}

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kCadp:
      return "CADP";
    case Backend::kGreedyConstraint:
      return "GREEDY";
  }
  return "?";
}

}  // namespace mris::knapsack
