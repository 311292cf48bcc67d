#include "knapsack/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/contracts.hpp"

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

/// A pooled row of `size` entries with unspecified contents: dp_table
/// writes every entry before anything reads it.
std::vector<double> acquire_dp(std::size_t size) {
  auto& pool = dp_pool();
  std::vector<double> dp;
  if (!pool.empty()) {
    dp = std::move(pool.back());
    pool.pop_back();
  }
  dp.resize(size);
  return dp;
}

void recycle_dp(std::vector<double>&& dp) {
  dp_pool().push_back(std::move(dp));
}

/// One dp_relax pass: dp[c] = max(dp[c], dp[c - size] + profit).
struct DpOp {
  std::int64_t size;
  double profit;
};

/// Largest integer up to which every double sum stays exact.
constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;

/// (class, count) pairs of one range.
using ClassCounts = std::vector<std::pair<std::int32_t, std::size_t>>;

/// What solve_integer_core fixes once per solve: how a range of items
/// becomes dp_relax passes, and the cells those passes relax.
///
/// On the exact branch every live profit is an integer and max profit *
/// live count <= 2^53, so every value any table or recover() forms is an
/// exactly representable integer.  A range's table is then the exact
/// optimum of the multiset of (scaled size, profit) in the range, and any
/// sequence of passes computing that optimum yields the same bits:
/// zero-size items are summed into the row's start value, and each
/// distinct (s, p) class of multiplicity m is relaxed as binary-split
/// pseudo-items (s * 2^k, p * 2^k).  Otherwise the passes are the range's
/// live items in index order, as the plain per-item DP does them.
struct DpPlan {
  DpPlan(const std::vector<Item>& items_in,
         const std::vector<std::int64_t>& sizes_in)
      : items(items_in), sizes(sizes_in) {}

  const std::vector<Item>& items;
  const std::vector<std::int64_t>& sizes;
  bool exact = false;
  std::vector<DpOp> classes;             ///< distinct nonzero (s, p)
  std::vector<std::int32_t> class_of;    ///< item -> class, -1 if none
  std::vector<std::size_t> class_count;  ///< per-range scratch, kept zeroed
  std::vector<std::int32_t> touched;     ///< classes seen in this range
  std::vector<DpOp> ops;                 ///< per-range scratch
  std::uint64_t cells = 0;               ///< sum of (top - s + 1) per pass
  /// Exact branch: each class's position in descending profit density,
  /// and the removal-window split's per-node scratch.
  std::vector<std::int32_t> density_rank;
  ClassCounts left_counts;
  ClassCounts right_counts;
  ClassCounts node_counts;
};

/// Lays out the range's passes in plan.ops and returns the row's start
/// value (the summed profit of zero-size items on the exact branch, else 0).
/// The exact branch runs its passes in ascending size order, which keeps
/// dp_table's frontier low for as long as possible.
double plan_range(DpPlan& plan, std::size_t lo, std::size_t hi,
                  std::int64_t cap) {
  plan.ops.clear();
  double base = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::int64_t s = plan.sizes[i];
    const double p = plan.items[i].profit;
    if (s > cap || p <= 0.0) continue;
    if (!plan.exact) {
      plan.ops.push_back({s, p});
    } else if (s == 0) {
      base += p;
    } else {
      const std::int32_t k = plan.class_of[i];
      if (plan.class_count[static_cast<std::size_t>(k)]++ == 0) {
        plan.touched.push_back(k);
      }
    }
  }
  for (const std::int32_t k : plan.touched) {
    const DpOp cls = plan.classes[static_cast<std::size_t>(k)];
    std::size_t m =
        std::exchange(plan.class_count[static_cast<std::size_t>(k)], 0);
    // Pieces 1, 2, 4, ..., remainder: every count c <= m is a subset sum of
    // pieces no larger than c, so a piece that does not fit cap is never
    // needed.
    for (std::size_t piece = 1; m > 0; piece *= 2) {
      const std::size_t take = std::min(piece, m);
      m -= take;
      const auto t = static_cast<std::int64_t>(take);
      if (cls.size > cap / t) continue;
      plan.ops.push_back({cls.size * t, cls.profit * static_cast<double>(t)});
    }
  }
  plan.touched.clear();
  if (plan.exact) {
    std::sort(plan.ops.begin(), plan.ops.end(),
              [](const DpOp& a, const DpOp& b) { return a.size < b.size; });
  }
  return base;
}

/// Runs plan.ops over a pooled row of width + 1 cells starting from
/// row[0] = base, each pass only up to its frontier (see dp_table).
std::vector<double> run_passes(DpPlan& plan, double base,
                               std::int64_t width) {
  std::vector<double> dp = acquire_dp(static_cast<std::size_t>(width) + 1);
  double* row = dp.data();
  row[0] = base;
  std::int64_t top = 0;
  for (const DpOp& op : plan.ops) {
    const std::int64_t next = op.size < width - top ? top + op.size : width;
    std::fill(row + top + 1, row + next + 1, row[top]);
    top = next;
    // Descending relaxation dp[c] = max(dp[c], dp[c - s] + p) for
    // c = top..s: every read dp[c - s] sees the value from before this op.
    for (std::int64_t c = top; c >= op.size; --c) {
      const double cand = row[c - op.size] + op.profit;
      if (cand > row[c]) row[c] = cand;
    }
    plan.cells += static_cast<std::uint64_t>(top - op.size + 1);
  }
  std::fill(row + top + 1, row + width + 1, row[top]);
  return dp;
}

/// Forward DP table for items[lo, hi): dp[c] = max profit with total
/// (integer) size <= c.  Monotone non-decreasing in c.
///
/// Each pass relaxes only c in [s, top], top = min(cap, sum of the sizes of
/// the passes so far).  Past that frontier the table is constant: if
/// dp[c] == V for every c >= T (the previous sum), then for c >= T + s
/// both dp[c] and dp[c - s] are V, so the pass stores max(V, V + p) ==
/// V + p in IEEE arithmetic too (p > 0).  Cells above top therefore hold
/// dp[top] and are written only when the frontier reaches them, or once
/// at the end — the same bits as relaxing the whole row.
std::vector<double> dp_table(DpPlan& plan, std::size_t lo, std::size_t hi,
                             std::int64_t cap) {
  const double base = plan_range(plan, lo, hi, cap);
  return run_passes(plan, base, cap);
}

/// On the exact branch, a range whose live items' sizes sum to at most
/// `cap` has one optimum: all of them (every live profit is positive and
/// every sum exact, so dropping any item loses profit).  Appends them in
/// index order, as the recursion would, and returns true; else false.
/// The per-item branch has no such shortcut: a sum can round away a small
/// profit (2^53 + 0.5 == 2^53), and the table's first maximizer then
/// leaves that item out.
bool take_all_if_they_fit(const DpPlan& plan,
                          const std::vector<std::size_t>& live_prefix,
                          std::size_t lo, std::size_t hi, std::int64_t cap,
                          std::vector<std::size_t>& out) {
  const std::size_t mark = out.size();
  std::int64_t room = cap;
  for (std::size_t i = lo; i < hi; ++i) {
    if (live_prefix[i + 1] == live_prefix[i]) continue;
    if (plan.sizes[i] > room) {
      out.resize(mark);
      return false;
    }
    room -= plan.sizes[i];
    out.push_back(i);
  }
  return true;
}

/// The split the forward tables give: the first c in [0, cap] maximizing
/// left[c] + right[cap - c], left and right the tables of [lo, mid) and
/// [mid, hi).  The tables go back to the pool before the caller recurses.
std::int64_t table_split(DpPlan& plan, std::size_t lo, std::size_t mid,
                         std::size_t hi, std::int64_t cap) {
  std::vector<double> left = dp_table(plan, lo, mid, cap);
  std::vector<double> right = dp_table(plan, mid, hi, cap);
  double best = -1.0;
  std::int64_t best_c = 0;
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
  return best_c;
}

/// Counts the live nonzero-size items of [lo, hi) per class into `out` as
/// (class, count) and returns their total scaled size, clamped to
/// 2^53 + 1 once it passes 2^53.
std::int64_t count_classes(DpPlan& plan, std::size_t lo, std::size_t hi,
                           std::int64_t cap, ClassCounts& out) {
  out.clear();
  std::int64_t total = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::int64_t s = plan.sizes[i];
    if (s == 0 || s > cap || !(plan.items[i].profit > 0.0)) continue;
    const std::int32_t k = plan.class_of[i];
    if (plan.class_count[static_cast<std::size_t>(k)]++ == 0) {
      plan.touched.push_back(k);
    }
    total = std::min(total + s, kTwo53 + 1);
  }
  for (const std::int32_t k : plan.touched) {
    out.emplace_back(
        k, std::exchange(plan.class_count[static_cast<std::size_t>(k)], 0));
  }
  plan.touched.clear();
  return total;
}

/// Profit a density-greedy feasible subset of the node's live items leaves
/// out: classes in descending profit density, each taking as many items as
/// still fit `cap`.  Q* <= this window, and the greedy keeps within one
/// item's profit of the optimum, so the window overshoots Q* by at most the
/// largest profit.  Stops counting once the window passes `cap`.
std::int64_t greedy_window(DpPlan& plan, std::int64_t cap) {
  ClassCounts& node = plan.node_counts;
  node.clear();
  for (const ClassCounts* half : {&plan.left_counts, &plan.right_counts}) {
    for (const auto& [k, m] : *half) {
      if (plan.class_count[static_cast<std::size_t>(k)] == 0) {
        plan.touched.push_back(k);
      }
      plan.class_count[static_cast<std::size_t>(k)] += m;
    }
  }
  for (const std::int32_t k : plan.touched) {
    node.emplace_back(
        k, std::exchange(plan.class_count[static_cast<std::size_t>(k)], 0));
  }
  plan.touched.clear();
  std::sort(node.begin(), node.end(), [&](const auto& a, const auto& b) {
    return plan.density_rank[static_cast<std::size_t>(a.first)] <
           plan.density_rank[static_cast<std::size_t>(b.first)];
  });
  std::int64_t room = cap;
  double removed = 0.0;  // a sum of integer profits <= 2^53: exact
  for (const auto& [k, m] : node) {
    const DpOp cls = plan.classes[static_cast<std::size_t>(k)];
    const auto count = static_cast<std::int64_t>(m);
    const std::int64_t take = std::min(count, room / cls.size);
    room -= take * cls.size;
    removed += cls.profit * static_cast<double>(count - take);
    if (removed > static_cast<double>(cap)) return cap + 1;
  }
  return static_cast<std::int64_t>(removed);
}

/// G[q] for q in [0, window]: the largest scaled size of a subset of the
/// counted classes with profit <= q.  The class DP with the roles of size
/// and profit swapped: binary-split pieces relax G[q] = max(G[q],
/// G[q - p] + s), each only up to its frontier (past it G is constant,
/// and every piece has s > 0).  Every profit is an integer and every size
/// sum <= 2^53, so the table is exact.
std::vector<double> removal_table(DpPlan& plan, const ClassCounts& counts,
                                  std::int64_t window) {
  plan.ops.clear();
  for (auto [k, m] : counts) {
    const DpOp cls = plan.classes[static_cast<std::size_t>(k)];
    const auto profit = static_cast<std::int64_t>(cls.profit);
    // A count c whose profit fits the window is a sum of pieces no larger
    // than c (plan_range), so pieces past the window are never needed.
    for (std::size_t piece = 1; m > 0; piece *= 2) {
      const std::size_t take = std::min(piece, m);
      m -= take;
      const auto t = static_cast<std::int64_t>(take);
      if (profit > window / t) continue;
      plan.ops.push_back({profit * t, static_cast<double>(cls.size * t)});
    }
  }
  std::sort(plan.ops.begin(), plan.ops.end(),
            [](const DpOp& a, const DpOp& b) { return a.size < b.size; });
  return run_passes(plan, 0.0, window);
}

/// The split table_split returns, solved in profit space over the removed
/// items (exact branch only; knapsack.hpp has the derivation).  With S_X
/// the scaled size of side X's live items and Delta = S_L + S_R - cap, the
/// least removed profit is Q* = min{q1 + q2 : G_L[q1] + G_R[q2] >= Delta},
/// and the first maximizer is best_c = S_L - max{G_L[q1] : q1 <= Q*,
/// G_L[q1] + G_R[Q* - q1] >= Delta}: the smallest c keeps the least on the
/// left.  Returns -1 when the window would be wider than the forward
/// tables (window > cap) or a size sum could round (S_L + S_R > 2^53).
std::int64_t window_split(DpPlan& plan, std::size_t lo, std::size_t mid,
                          std::size_t hi, std::int64_t cap) {
  const std::int64_t left_size =
      count_classes(plan, lo, mid, cap, plan.left_counts);
  const std::int64_t right_size =
      count_classes(plan, mid, hi, cap, plan.right_counts);
  if (left_size + right_size > kTwo53) return -1;
  const std::int64_t excess = left_size + right_size - cap;
  if (excess <= 0) return left_size;  // everything fits: Q* = 0
  const std::int64_t window = greedy_window(plan, cap);
  if (window > cap) return -1;
  std::vector<double> left = removal_table(plan, plan.left_counts, window);
  std::vector<double> right = removal_table(plan, plan.right_counts, window);
  const double need = static_cast<double>(excess);
  // Two pointers: the least q2 meeting `need` falls as q1 grows.
  std::int64_t q_star = 2 * window + 1;
  std::int64_t q2 = window;
  for (std::int64_t q1 = 0; q1 <= window && q1 < q_star; ++q1) {
    const double g1 = left[static_cast<std::size_t>(q1)];
    while (q2 > 0 && g1 + right[static_cast<std::size_t>(q2 - 1)] >= need) {
      --q2;
    }
    if (g1 + right[static_cast<std::size_t>(q2)] >= need) {
      q_star = std::min(q_star, q1 + q2);
    }
  }
  MRIS_INVARIANT(q_star <= window,
                 "CADP: the greedy window must bound the removed profit");
  double removed_left = 0.0;
  for (std::int64_t q1 = 0; q1 <= q_star; ++q1) {
    const double g1 = left[static_cast<std::size_t>(q1)];
    if (g1 + right[static_cast<std::size_t>(q_star - q1)] >= need) {
      removed_left = std::max(removed_left, g1);
    }
  }
  recycle_dp(std::move(left));
  recycle_dp(std::move(right));
  return left_size - static_cast<std::int64_t>(removed_left);
}

/// Hirschberg-style divide-and-conquer solution recovery: O(n * cap) time,
/// O(cap) extra memory, no per-item parent bitsets.
///
/// `live_prefix[i]` counts items in [0, i) the DP could ever take (positive
/// profit, size within the top-level capacity).  Ranges with zero live
/// items return immediately, ranges with one resolve as a leaf, and on the
/// exact branch ranges whose live items all fit take them all — each
/// provably recovers the same selection the plain recursion would, while
/// skipping the dp_table passes it would spend.  The split index stays
/// relative to the ORIGINAL item array: compacting dead items out would
/// move the midpoints, and with tied profits the first-maximizer best_c
/// rule then recovers a different (equal-profit) optimum — breaking
/// byte-identical schedules.
void recover(DpPlan& plan, const std::vector<std::size_t>& live_prefix,
             std::size_t lo, std::size_t hi, std::int64_t cap,
             std::vector<std::size_t>& out) {
  if (lo >= hi || cap < 0) return;
  const std::size_t live = live_prefix[hi] - live_prefix[lo];
  if (live == 0) return;
  if (live == 1) {
    // A lone live item is selected iff it fits the range's capacity; the
    // plain recursion funnels exactly cap (or the item's size) to it.
    std::size_t i = lo;
    while (live_prefix[i + 1] == live_prefix[lo]) ++i;
    if (plan.sizes[i] <= cap) out.push_back(i);
    return;
  }
  if (plan.exact && take_all_if_they_fit(plan, live_prefix, lo, hi, cap, out)) {
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  SplitAudit& audit = split_audit();
  std::int64_t best_c = plan.exact ? window_split(plan, lo, mid, hi, cap) : -1;
  if (best_c < 0) {
    best_c = table_split(plan, lo, mid, hi, cap);
    ++audit.table;
  } else {
    ++audit.window;
    if (audit.cross_check) {
      const std::uint64_t cells = plan.cells;
      MRIS_INVARIANT(table_split(plan, lo, mid, hi, cap) == best_c,
                     "CADP: removal-window split differs from the forward "
                     "tables' first maximizer");
      plan.cells = cells;
    }
  }
  recover(plan, live_prefix, lo, mid, best_c, out);
  recover(plan, live_prefix, mid, hi, cap - best_c, out);
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

/// True when every table value the DP can form is an exactly
/// representable integer: every live profit is an integer and
/// max profit * live count <= 2^53 (checked in integers, not as a rounded
/// floating-point sum).
bool integral_profits(const std::vector<Item>& items,
                      const std::vector<std::int64_t>& sizes,
                      std::int64_t cap, std::uint64_t live_count) {
  constexpr auto kLimit = static_cast<std::uint64_t>(kTwo53);
  double max_profit = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double p = items[i].profit;
    if (sizes[i] > cap || !(p > 0.0)) continue;
    if (p != std::floor(p)) return false;
    max_profit = std::max(max_profit, p);
  }
  if (!(max_profit <= static_cast<double>(kLimit))) return false;
  return live_count <= kLimit / static_cast<std::uint64_t>(max_profit);
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
  DpPlan plan(items, sizes);
  plan.exact = integral_profits(items, sizes, cap, live_prefix.back());
  if (plan.exact) {
    // Number the distinct nonzero (s, p) classes once per solve.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (sizes[i] > 0 && sizes[i] <= cap && items[i].profit > 0.0) {
        order.push_back(i);
      }
    }
    const auto key = [&](std::size_t i) {
      return std::pair(sizes[i], items[i].profit);
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
    plan.class_of.assign(items.size(), -1);
    for (const std::size_t i : order) {
      if (plan.classes.empty() ||
          key(i) != std::pair(plan.classes.back().size,
                              plan.classes.back().profit)) {
        plan.classes.push_back({sizes[i], items[i].profit});
      }
      plan.class_of[i] = static_cast<std::int32_t>(plan.classes.size() - 1);
    }
    plan.class_count.assign(plan.classes.size(), 0);
    // Rank the classes by profit density for the removal window's greedy.
    // A per-class key keeps the comparison a strict weak order.
    std::vector<std::int32_t> by_density(plan.classes.size());
    std::iota(by_density.begin(), by_density.end(), 0);
    const auto density = [&](std::int32_t k) {
      const DpOp& c = plan.classes[static_cast<std::size_t>(k)];
      return c.profit / static_cast<double>(c.size);
    };
    std::sort(by_density.begin(), by_density.end(),
              [&](std::int32_t a, std::int32_t b) {
                const double da = density(a);
                const double db = density(b);
                return da != db ? da > db : a < b;
              });
    plan.density_rank.resize(plan.classes.size());
    for (std::size_t r = 0; r < by_density.size(); ++r) {
      plan.density_rank[static_cast<std::size_t>(by_density[r])] =
          static_cast<std::int32_t>(r);
    }
  }
  std::vector<std::size_t> chosen;
  recover(plan, live_prefix, 0, items.size(), cap, chosen);
  Selection sel = finish(items, chosen);
  sel.dp_cells = plan.cells;
  return sel;
}

/// Largest DP capacity the solvers accept: far beyond any table that fits
/// in memory, and small enough that cap + 1 and the cast below stay in
/// int64 range.
constexpr std::int64_t kMaxDpCapacity = std::int64_t{1} << 62;

/// A non-negative scaled size as a DP size.  Anything above `cap` cannot
/// be taken and maps to cap + 1 (dead) before the cast, so a huge or
/// infinite size never reaches an out-of-range float-to-int conversion.
/// Requires 0 <= cap <= kMaxDpCapacity.
std::int64_t dp_size(double scaled, std::int64_t cap) {
  if (!(scaled <= static_cast<double>(cap))) return cap + 1;
  const auto s = static_cast<std::int64_t>(scaled);
  return s > cap ? cap + 1 : s;
}

void require_finite(const Item& item, const char* solver) {
  if (!std::isfinite(item.size) || !std::isfinite(item.profit)) {
    throw std::invalid_argument(std::string(solver) +
                                ": item sizes and profits must be finite");
  }
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

SplitAudit& split_audit() {
  // A per-thread test hook: counters only, read by the thread that solved.
  // mris-analyze: allow(ts-global)
  thread_local SplitAudit audit;
  return audit;
}

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
  if (capacity > kMaxDpCapacity) {
    throw std::invalid_argument(
        "solve_exact_dp: capacity exceeds any DP table (2^62)");
  }
  std::vector<std::int64_t> sizes(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    require_finite(items[i], "solve_exact_dp");
    const double s = items[i].size;
    if (s < 0.0 || s != std::floor(s)) {
      throw std::invalid_argument(
          "solve_exact_dp: item sizes must be non-negative integers");
    }
    sizes[i] = dp_size(s, capacity);
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
  if (!std::isfinite(capacity)) {
    throw std::invalid_argument("solve_cadp: capacity must be finite");
  }
  const auto n = static_cast<double>(items.size());
  // Ibarra–Kim scaling: K = eps * zeta / n, so that the total rounding
  // error n*K equals eps*zeta (Lemma 6.1).
  const double K = eps * capacity / n;
  const double scaled_cap = std::floor(capacity / K);
  if (!(scaled_cap <= static_cast<double>(kMaxDpCapacity))) {
    throw std::invalid_argument(
        "solve_cadp: capacity / K exceeds any DP table (eps too small)");
  }
  const auto cap = static_cast<std::int64_t>(scaled_cap);
  std::vector<std::int64_t> sizes(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    require_finite(items[i], "solve_cadp");
    if (items[i].size < 0.0) {
      throw std::invalid_argument("solve_cadp: negative item size");
    }
    sizes[i] = dp_size(std::floor(items[i].size / K), cap);
  }
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
