// Property-based sweeps of the constraint-approximation guarantees
// (Lemma 6.1 and Remark 1) against the brute-force oracle, driven by the
// testkit: items come from label-derived streams (adding a sweep never
// perturbs another sweep's draws), adversarial equal-profit/equal-size tie
// groups ride along, and a violated property is handed to shrink_items()
// so the failure report is a minimal item list, not a 18-item haystack.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>

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
