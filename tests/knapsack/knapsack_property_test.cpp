// Property-based sweeps of the constraint-approximation guarantees
// (Lemma 6.1 and Remark 1) against the brute-force oracle, driven by the
// testkit: items come from label-derived streams (adding a sweep never
// perturbs another sweep's draws), adversarial equal-profit/equal-size tie
// groups ride along, and a violated property is handed to shrink_items()
// so the failure report is a minimal item list, not a 18-item haystack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string_view>
#include <tuple>
#include <utility>

#include "knapsack/knapsack.hpp"
#include "testkit/shrinker.hpp"
#include "testkit/streams.hpp"

namespace mris::knapsack {
namespace {

using testkit::ItemsPredicate;
using testkit::make_stream;
using testkit::shrink_items;

std::vector<Item> random_items(util::Xoshiro256& rng, std::size_t n,
                               double max_size) {
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back({util::uniform(rng, 0.1, max_size),
                     util::uniform(rng, 0.5, 10.0),
                     static_cast<std::int32_t>(i)});
  }
  return items;
}

/// Tie-heavy variant: groups of items with bit-identical (size, profit),
/// the degenerate inputs where only deterministic tie-breaking separates
/// solutions (testkit's knapsack-ties family, at the item level).
std::vector<Item> tied_items(util::Xoshiro256& rng, std::size_t n) {
  std::vector<Item> items;
  while (items.size() < n) {
    const std::size_t group =
        std::min(n - items.size(), 2 + util::uniform_index(rng, 4));
    const double size = static_cast<double>(util::uniform_int(rng, 1, 12)) / 2.0;
    const double profit = static_cast<double>(util::uniform_int(rng, 1, 8));
    for (std::size_t g = 0; g < group; ++g) {
      items.push_back({size, profit, static_cast<std::int32_t>(items.size())});
    }
  }
  return items;
}

std::string describe(const std::vector<Item>& items) {
  std::ostringstream out;
  out.precision(17);
  for (const Item& item : items) {
    out << "  {size=" << item.size << ", profit=" << item.profit << "}\n";
  }
  return out.str();
}

/// Asserts `holds` on `items`; on violation, shrinks to a minimal failing
/// item list and reports that instead.
void expect_property(const std::vector<Item>& items,
                     const std::function<bool(const std::vector<Item>&)>& holds,
                     const std::string& what) {
  if (holds(items)) return;
  const ItemsPredicate fails = [&](const std::vector<Item>& v) {
    return !holds(v);
  };
  testkit::ShrinkStats stats;
  const std::vector<Item> minimal = shrink_items(items, fails, {}, &stats);
  FAIL() << what << " violated; minimized from " << items.size() << " to "
         << minimal.size() << " items (" << stats.predicate_calls
         << " predicate calls):\n"
         << describe(minimal);
}

// Parameter: (seed, num_items, eps).
class CadpProperty
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(CadpProperty, DominatesOptimalProfitWithinCapacitySlack) {
  const auto [seed, n, eps] = GetParam();
  util::Xoshiro256 rng =
      make_stream(static_cast<std::uint64_t>(seed), "knapsack-cadp");
  const auto items = random_items(rng, static_cast<std::size_t>(n), 8.0);
  const double capacity = util::uniform(rng, 4.0, 20.0);

  // Lemma 6.1: profit >= OPT and size <= (1 + eps) * capacity.
  const double e = eps;
  expect_property(
      items,
      [capacity, e](const std::vector<Item>& v) {
        const Selection opt = solve_bruteforce(v, capacity);
        const Selection cadp = solve_cadp(v, capacity, e);
        return cadp.total_profit + 1e-9 >= opt.total_profit &&
               cadp.total_size <= (1.0 + e) * capacity + 1e-9;
      },
      "Lemma 6.1 (CADP)");
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, CadpProperty,
    ::testing::Combine(::testing::Range(1, 9), ::testing::Values(5, 10, 14),
                       ::testing::Values(0.1, 0.5, 0.9)));

class CadpTieProperty : public ::testing::TestWithParam<int> {};

TEST_P(CadpTieProperty, StableOnEqualProfitTieGroups) {
  util::Xoshiro256 rng = make_stream(
      static_cast<std::uint64_t>(GetParam()), "knapsack-cadp-ties");
  const auto items = tied_items(rng, 12);
  const double capacity = util::uniform(rng, 4.0, 16.0);
  expect_property(
      items,
      [capacity](const std::vector<Item>& v) {
        const Selection opt = solve_bruteforce(v, capacity);
        const Selection a = solve_cadp(v, capacity, 0.5);
        const Selection b = solve_cadp(v, capacity, 0.5);
        // Guarantee *and* determinism on fully degenerate inputs.
        return a.total_profit + 1e-9 >= opt.total_profit &&
               a.total_size <= 1.5 * capacity + 1e-9 && a.tags == b.tags;
      },
      "CADP on tie groups");
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CadpTieProperty,
                         ::testing::Range(1, 9));

class GreedyProperty : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(GreedyProperty, DominatesOptimalProfitWithinDoubleCapacity) {
  const auto [seed, n] = GetParam();
  util::Xoshiro256 rng =
      make_stream(static_cast<std::uint64_t>(seed), "knapsack-greedy");
  const auto items = random_items(rng, static_cast<std::size_t>(n), 8.0);
  const double capacity = util::uniform(rng, 4.0, 20.0);

  // Remark 1: profit >= OPT and size <= 2 * capacity.
  expect_property(
      items,
      [capacity](const std::vector<Item>& v) {
        const Selection opt = solve_bruteforce(v, capacity);
        const Selection greedy = solve_greedy_constraint(v, capacity);
        return greedy.total_profit + 1e-9 >= opt.total_profit &&
               greedy.total_size <= 2.0 * capacity + 1e-9;
      },
      "Remark 1 (greedy)");
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GreedyProperty,
                         ::testing::Combine(::testing::Range(1, 13),
                                            ::testing::Values(6, 12, 18)));

/// Largest item size among the selected tags.
double max_selected_size(const std::vector<Item>& items, const Selection& s) {
  double vmax = 0.0;
  for (const std::int32_t tag : s.tags) {
    for (const Item& item : items) {
      if (item.tag == tag) vmax = std::max(vmax, item.size);
    }
  }
  return vmax;
}

class GreedyLemma61Property
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// The bound MRIS_ENSURE certifies on every call: the prefix before the
// overflowing item fits zeta, so size <= zeta + max chosen v_j.  Checked
// against branch and bound, which reaches sizes brute force cannot.
TEST_P(GreedyLemma61Property, WithinZetaPlusLargestChosenItem) {
  const auto [seed, n] = GetParam();
  util::Xoshiro256 rng =
      make_stream(static_cast<std::uint64_t>(seed), "knapsack-greedy-l61");
  const auto items = random_items(rng, static_cast<std::size_t>(n), 8.0);
  const double capacity = util::uniform(rng, 4.0, 40.0);
  expect_property(
      items,
      [capacity](const std::vector<Item>& v) {
        const Selection opt = solve_branch_and_bound(v, capacity);
        const Selection greedy = solve_greedy_constraint(v, capacity);
        return greedy.total_profit + 1e-9 >= opt.total_profit &&
               greedy.total_size <=
                   capacity + max_selected_size(v, greedy) + 1e-9;
      },
      "Lemma 6.1 (greedy, zeta + max v_j)");
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GreedyLemma61Property,
                         ::testing::Combine(::testing::Range(1, 9),
                                            ::testing::Values(10, 24, 40)));

class GreedyMrisShapeProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// MRIS's wakeup instances: p_j <= gamma_k and d_jl <= 1 give
// v_j <= R * gamma_k = zeta / M, so the greedy selects at most
// (1 + 1/M) * zeta — Lemma 6.1 at eps = 1/M.
TEST_P(GreedyMrisShapeProperty, WithinOnePlusOneOverMZeta) {
  const auto [seed, machines] = GetParam();
  util::Xoshiro256 rng =
      make_stream(static_cast<std::uint64_t>(seed), "knapsack-greedy-mris");
  const double zeta = util::uniform(rng, 8.0, 64.0);
  // ~1.5-3.5 zeta of candidates in total, so the greedy must stop early.
  const auto items =
      random_items(rng, static_cast<std::size_t>(3 * machines + 10),
                   zeta / static_cast<double>(machines));
  expect_property(
      items,
      [zeta, machines](const std::vector<Item>& v) {
        const Selection opt = solve_branch_and_bound(v, zeta);
        const Selection greedy = solve_greedy_constraint(v, zeta);
        return greedy.total_profit + 1e-9 >= opt.total_profit &&
               greedy.total_size <=
                   (1.0 + 1.0 / static_cast<double>(machines)) * zeta + 1e-9;
      },
      "Lemma 6.1 (greedy, M >= 1/eps)");
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GreedyMrisShapeProperty,
                         ::testing::Combine(::testing::Range(1, 9),
                                            ::testing::Values(2, 5, 20)));

class GreedyHalfProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GreedyHalfProperty, HalfApproximationWithinCapacity) {
  const auto [seed, n] = GetParam();
  util::Xoshiro256 rng =
      make_stream(static_cast<std::uint64_t>(seed), "knapsack-greedy-half");
  const auto items = random_items(rng, static_cast<std::size_t>(n), 8.0);
  const double capacity = util::uniform(rng, 4.0, 20.0);

  expect_property(
      items,
      [capacity](const std::vector<Item>& v) {
        const Selection opt = solve_bruteforce(v, capacity);
        const Selection half = solve_greedy_half(v, capacity);
        return half.total_size <= capacity + 1e-9 &&
               half.total_profit + 1e-9 >= 0.5 * opt.total_profit;
      },
      "half-approximation");
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GreedyHalfProperty,
                         ::testing::Combine(::testing::Range(1, 13),
                                            ::testing::Values(6, 12)));

class ExactDpProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExactDpProperty, MatchesBruteForceOnIntegerInstances) {
  util::Xoshiro256 rng = make_stream(
      static_cast<std::uint64_t>(GetParam()), "knapsack-exact-dp");
  std::vector<Item> items;
  const std::size_t n = 4 + util::uniform_index(rng, 10);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back({static_cast<double>(util::uniform_int(rng, 1, 12)),
                     util::uniform(rng, 0.5, 10.0),
                     static_cast<std::int32_t>(i)});
  }
  const std::int64_t capacity = util::uniform_int(rng, 5, 40);
  expect_property(
      items,
      [capacity](const std::vector<Item>& v) {
        const Selection dp = solve_exact_dp(v, capacity);
        const Selection bf =
            solve_bruteforce(v, static_cast<double>(capacity));
        return std::abs(dp.total_profit - bf.total_profit) <= 1e-9 &&
               dp.total_size <= static_cast<double>(capacity);
      },
      "exact DP vs brute force");
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ExactDpProperty,
                         ::testing::Range(1, 25));

// ---- CADP against its per-item reference ---------------------------------
//
// ReferenceCadp is CADP as a plain per-item DP: Ibarra–Kim scaling, one
// relaxation pass per live item in index order over the whole row, and the
// same divide-and-conquer recovery (live census, first-maximizer split).
// solve_cadp relaxes each (scaled size, profit) class once when every live
// profit is an integer and max profit * live count <= 2^53, and every pass
// only up to its frontier; the two must agree bit for bit on every input,
// on either side of that test.

struct ReferenceSolve {
  Selection selection;
  /// Sum of (min(cap, T) - s + 1) over the passes, T the running sum of
  /// the range's pass sizes: the cells a frontier-clamped pass relaxes.
  std::uint64_t cells = 0;
  std::uint64_t full_cells = 0;  ///< sum of (cap - s + 1) over the passes
};

struct ReferenceCadp {
  const std::vector<Item>& items;
  std::vector<std::int64_t> sizes;
  std::vector<std::size_t> live_prefix;
  std::uint64_t cells = 0;
  std::uint64_t full_cells = 0;

  std::vector<double> table(std::size_t lo, std::size_t hi,
                            std::int64_t cap) {
    std::vector<double> dp(static_cast<std::size_t>(cap) + 1, 0.0);
    std::int64_t total = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::int64_t s = sizes[i];
      const double p = items[i].profit;
      if (s > cap || p <= 0.0) continue;
      for (std::int64_t c = cap; c >= s; --c) {
        const double cand = dp[static_cast<std::size_t>(c - s)] + p;
        if (cand > dp[static_cast<std::size_t>(c)]) {
          dp[static_cast<std::size_t>(c)] = cand;
        }
      }
      total += s;
      cells += static_cast<std::uint64_t>(std::min(cap, total) - s + 1);
      full_cells += static_cast<std::uint64_t>(cap - s + 1);
    }
    return dp;
  }

  void recover(std::size_t lo, std::size_t hi, std::int64_t cap,
               std::vector<std::size_t>& out) {
    if (lo >= hi || cap < 0) return;
    const std::size_t live = live_prefix[hi] - live_prefix[lo];
    if (live == 0) return;
    if (live == 1) {
      std::size_t i = lo;
      while (live_prefix[i + 1] == live_prefix[lo]) ++i;
      if (sizes[i] <= cap) out.push_back(i);
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::vector<double> left = table(lo, mid, cap);
    const std::vector<double> right = table(mid, hi, cap);
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
    recover(lo, mid, best_c, out);
    recover(mid, hi, cap - best_c, out);
  }
};

/// Inputs are finite, non-negative and scale to sizes far inside int64.
ReferenceSolve reference_cadp(const std::vector<Item>& items,
                              double capacity, double eps) {
  ReferenceSolve result;
  if (items.empty() || capacity <= 0.0) return result;
  const double K = eps * capacity / static_cast<double>(items.size());
  const auto cap = static_cast<std::int64_t>(std::floor(capacity / K));
  ReferenceCadp ref{items, {}, {0}, 0, 0};
  for (const Item& item : items) {
    const double scaled = std::floor(item.size / K);
    ref.sizes.push_back(scaled > static_cast<double>(cap)
                            ? cap + 1
                            : static_cast<std::int64_t>(scaled));
    const bool live = ref.sizes.back() <= cap && item.profit > 0.0;
    ref.live_prefix.push_back(ref.live_prefix.back() + (live ? 1 : 0));
  }
  std::vector<std::size_t> chosen;
  ref.recover(0, items.size(), cap, chosen);
  for (const std::size_t i : chosen) {
    result.selection.tags.push_back(items[i].tag);
    result.selection.total_profit += items[i].profit;
    result.selection.total_size += items[i].size;
  }
  result.cells = ref.cells;
  result.full_cells = ref.full_cells;
  return result;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The exactness test, restated: some live profit is not an integer, or
/// max live profit * live count exceeds 2^53.
bool per_item_branch(const std::vector<Item>& items, double capacity,
                     double eps) {
  const double K = eps * capacity / static_cast<double>(items.size());
  const double cap = std::floor(capacity / K);
  long double max_profit = 0.0L;
  long double live = 0.0L;
  for (const Item& item : items) {
    if (std::floor(item.size / K) > cap || !(item.profit > 0.0)) continue;
    if (item.profit != std::floor(item.profit)) return true;
    max_profit = std::max(max_profit, static_cast<long double>(item.profit));
    live += 1.0L;
  }
  return max_profit * live > 0x1p53L;
}

/// solve_cadp and ReferenceCadp select the same tags with bit-identical
/// totals.  On the per-item branch the cell counts equal the reference's
/// frontier count (the same passes run, each up to its frontier); on the
/// exact branch solve_cadp relaxes no more cells than the whole-row
/// per-item passes.
bool matches_reference(const std::vector<Item>& items, double capacity,
                       double eps) {
  const Selection got = solve_cadp(items, capacity, eps);
  const ReferenceSolve want = reference_cadp(items, capacity, eps);
  const bool cells_ok = per_item_branch(items, capacity, eps)
                            ? got.dp_cells == want.cells
                            : got.dp_cells <= want.full_cells;
  return got.tags == want.selection.tags &&
         same_bits(got.total_profit, want.selection.total_profit) &&
         same_bits(got.total_size, want.selection.total_size) && cells_ok;
}

/// An MRIS wakeup in miniature: >= 50% of the items scale to size 0
/// (v_j < K), the rest come from a small size palette, and profits take
/// three integer levels, so (size, profit) pairs repeat.
std::vector<Item> mris_shaped_items(util::Xoshiro256& rng, std::size_t n,
                                    double capacity, double eps) {
  const double K = eps * capacity / static_cast<double>(n);
  std::vector<double> palette;
  for (int k = 0; k < 6; ++k) {
    palette.push_back(K * static_cast<double>(util::uniform_int(rng, 1, 60)) +
                      util::uniform(rng, 0.0, 0.5 * K));
  }
  std::vector<Item> items;
  for (std::size_t i = 0; i < n; ++i) {
    const bool zero = util::uniform01(rng) < 0.6;
    const double size =
        zero ? util::uniform(rng, 0.0, 0.99 * K)
             : palette[util::uniform_index(rng, palette.size())];
    items.push_back({size, static_cast<double>(util::uniform_int(rng, 1, 3)),
                     static_cast<std::int32_t>(i)});
  }
  return items;
}

// Parameter: (seed, num_items).
class CadpExactProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

/// Checks solve_cadp against ReferenceCadp on fuzz_iters(2) instances drawn
/// from one labelled stream; `make` draws (capacity, items) from it.
void sweep_against_reference(
    int seed, std::string_view label, const std::string& what,
    const std::function<std::pair<double, std::vector<Item>>(
        util::Xoshiro256&)>& make) {
  util::Xoshiro256 rng = make_stream(static_cast<std::uint64_t>(seed), label);
  for (std::size_t rep = 0; rep < testkit::fuzz_iters(2); ++rep) {
    const auto [capacity, items] = make(rng);
    expect_property(
        items,
        [capacity = capacity](const std::vector<Item>& v) {
          return matches_reference(v, capacity, 0.5);
        },
        what);
  }
}

TEST_P(CadpExactProperty, IntegerProfitsMatchPerItemReference) {
  const auto [seed, n] = GetParam();
  sweep_against_reference(
      seed, "knapsack-cadp-exact",
      "CADP == ReferenceCadp (MRIS-shaped, integer profits)",
      [n = n](util::Xoshiro256& rng) {
        const double capacity = util::uniform(rng, 20.0, 200.0);
        return std::pair(capacity,
                         mris_shaped_items(rng, static_cast<std::size_t>(n),
                                           capacity, 0.5));
      });
}

TEST_P(CadpExactProperty, TieGroupsMatchPerItemReference) {
  const auto [seed, n] = GetParam();
  sweep_against_reference(
      seed, "knapsack-cadp-exact-ties", "CADP == ReferenceCadp (tie groups)",
      [n = n](util::Xoshiro256& rng) {
        auto items = tied_items(rng, static_cast<std::size_t>(n));
        return std::pair(util::uniform(rng, 4.0, 40.0), std::move(items));
      });
}

TEST_P(CadpExactProperty, FractionalProfitsMatchPerItemReference) {
  const auto [seed, n] = GetParam();
  sweep_against_reference(
      seed, "knapsack-cadp-exact-frac",
      "CADP == ReferenceCadp (fractional profits)",
      [n = n](util::Xoshiro256& rng) {
        const double capacity = util::uniform(rng, 20.0, 200.0);
        auto items = mris_shaped_items(rng, static_cast<std::size_t>(n),
                                       capacity, 0.5);
        // Tenths: many subsets have equal profit on paper and differ only
        // in how their float sums round.
        for (Item& item : items) {
          item.profit *= 0.1 * static_cast<double>(1 + item.tag % 3);
        }
        return std::pair(capacity, std::move(items));
      });
}

TEST_P(CadpExactProperty, OneFractionalProfitMatchesPerItemReference) {
  const auto [seed, n] = GetParam();
  sweep_against_reference(
      seed, "knapsack-cadp-exact-one-frac",
      "CADP == ReferenceCadp (one fractional profit)",
      [n = n](util::Xoshiro256& rng) {
        const double capacity = util::uniform(rng, 20.0, 200.0);
        auto items = mris_shaped_items(rng, static_cast<std::size_t>(n),
                                       capacity, 0.5);
        // Size 0 keeps the fractional item live at every capacity.
        Item& odd = items[util::uniform_index(rng, items.size())];
        odd.size = 0.0;
        odd.profit += 0.5;
        return std::pair(capacity, std::move(items));
      });
}

TEST_P(CadpExactProperty, ProfitsPast2To53MatchPerItemReference) {
  const auto [seed, n] = GetParam();
  sweep_against_reference(
      seed, "knapsack-cadp-exact-huge",
      "CADP == ReferenceCadp (integer profits past 2^53)",
      [n = n](util::Xoshiro256& rng) {
        const double capacity = util::uniform(rng, 20.0, 200.0);
        auto items = mris_shaped_items(rng, static_cast<std::size_t>(n),
                                       capacity, 0.5);
        // Integer profits near 2^52: max profit * live count > 2^53 from
        // three live items on, and sums past 2^53 round, so the order of
        // additions matters.
        for (Item& item : items) item.profit = 0x1p52 + 2.0 * item.profit - 1.0;
        return std::pair(capacity, std::move(items));
      });
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CadpExactProperty,
                         ::testing::Combine(::testing::Range(1, 9),
                                            ::testing::Values(12, 40, 120)));

TEST(CadpExactTest, ExactnessBoundaryIsMaxProfitTimesLiveCount) {
  // 16 live items at profit 2^49 reach 2^53 exactly (exact branch); a
  // 17th crosses it (per-item passes).  Both match the reference.
  std::vector<Item> items;
  for (std::int32_t i = 0; i < 17; ++i) {
    items.push_back({1.0 + (i % 4 == 0 ? 0.0 : 2.0), 0x1p49, i});
  }
  const std::vector<Item> sixteen(items.begin(), items.begin() + 16);
  EXPECT_FALSE(per_item_branch(sixteen, 12.0, 0.5));
  EXPECT_TRUE(matches_reference(sixteen, 12.0, 0.5));
  EXPECT_LT(solve_cadp(sixteen, 12.0, 0.5).dp_cells,
            reference_cadp(sixteen, 12.0, 0.5).cells);
  EXPECT_TRUE(per_item_branch(items, 12.0, 0.5));
  EXPECT_TRUE(matches_reference(items, 12.0, 0.5));
}

TEST(CadpExactTest, MrisShapedSolveRelaxesATenthOfThePerItemCells) {
  util::Xoshiro256 rng = make_stream(7, "knapsack-cadp-cells");
  const double capacity = 500.0;
  const auto items = mris_shaped_items(rng, 2000, capacity, 0.5);
  const Selection got = solve_cadp(items, capacity, 0.5);
  const ReferenceSolve want = reference_cadp(items, capacity, 0.5);
  EXPECT_EQ(got.tags, want.selection.tags);
  EXPECT_GT(got.dp_cells, 0u);
  EXPECT_LE(10 * got.dp_cells, want.full_cells)
      << got.dp_cells << " cells vs " << want.full_cells << " per item";
}

TEST(CadpExactTest, ExactDpSharesTheClassDp) {
  // solve_exact_dp runs the same core: integer profits take the class
  // passes, fractional ones the per-item passes, and both agree with
  // brute force.
  std::vector<Item> items;
  for (std::int32_t i = 0; i < 20; ++i) {
    items.push_back({static_cast<double>(i % 3), 1.0 + (i % 2), i});
  }
  std::vector<Item> fractional = items;
  for (Item& item : fractional) item.profit += 0.25;
  for (const auto& v : {items, fractional}) {
    const Selection dp = solve_exact_dp(v, 9);
    const Selection bf = solve_bruteforce(v, 9.0);
    EXPECT_DOUBLE_EQ(dp.total_profit, bf.total_profit);
    EXPECT_LE(dp.total_size, 9.0);
  }
  EXPECT_LT(solve_exact_dp(items, 9).dp_cells,
            solve_exact_dp(fractional, 9).dp_cells);
}

TEST(SelectionConsistencyTest, TotalsMatchSelectedTags) {
  util::Xoshiro256 rng = make_stream(2024, "knapsack-consistency");
  const auto items = random_items(rng, 12, 6.0);
  const Selection s = solve_cadp(items, 15.0, 0.4);
  double size = 0.0, profit = 0.0;
  for (std::int32_t tag : s.tags) {
    size += items[static_cast<std::size_t>(tag)].size;
    profit += items[static_cast<std::size_t>(tag)].profit;
  }
  EXPECT_NEAR(size, s.total_size, 1e-9);
  EXPECT_NEAR(profit, s.total_profit, 1e-9);
  // No duplicates.
  auto tags = s.tags;
  std::sort(tags.begin(), tags.end());
  EXPECT_EQ(std::adjacent_find(tags.begin(), tags.end()), tags.end());
}

}  // namespace
}  // namespace mris::knapsack
