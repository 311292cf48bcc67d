#include "knapsack/knapsack.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace mris::knapsack {
namespace {

std::vector<Item> classic_items() {
  // (size, profit): a classic instance with optimum {1, 2} at capacity 10.
  return {{6.0, 30.0, 0}, {4.0, 14.0, 1}, {6.0, 16.0, 2}, {3.0, 9.0, 3}};
}

TEST(BruteForceTest, FindsKnownOptimum) {
  const Selection s = solve_bruteforce(classic_items(), 10.0);
  EXPECT_DOUBLE_EQ(s.total_profit, 44.0);
  EXPECT_LE(s.total_size, 10.0);
}

TEST(BruteForceTest, ZeroCapacitySelectsNothing) {
  const Selection s = solve_bruteforce(classic_items(), 0.0);
  EXPECT_TRUE(s.tags.empty());
  EXPECT_DOUBLE_EQ(s.total_profit, 0.0);
}

TEST(BruteForceTest, RejectsTooManyItems) {
  std::vector<Item> items(31, Item{1.0, 1.0, 0});
  EXPECT_THROW(solve_bruteforce(items, 5.0), std::invalid_argument);
}

TEST(ExactDpTest, MatchesBruteForce) {
  const auto items = classic_items();
  const Selection dp = solve_exact_dp(items, 10);
  const Selection bf = solve_bruteforce(items, 10.0);
  EXPECT_DOUBLE_EQ(dp.total_profit, bf.total_profit);
  EXPECT_LE(dp.total_size, 10.0);
}

TEST(ExactDpTest, RejectsFractionalSizes) {
  const std::vector<Item> items = {{1.5, 1.0, 0}};
  EXPECT_THROW(solve_exact_dp(items, 10), std::invalid_argument);
}

TEST(ExactDpTest, NegativeCapacityYieldsEmpty) {
  EXPECT_TRUE(solve_exact_dp(classic_items(), -1).tags.empty());
}

TEST(ExactDpTest, AllItemsFitWhenCapacityLarge) {
  const Selection s = solve_exact_dp(classic_items(), 1000);
  EXPECT_EQ(s.tags.size(), 4u);
  EXPECT_DOUBLE_EQ(s.total_profit, 69.0);
}

TEST(ExactDpTest, SkipsZeroProfitItems) {
  const std::vector<Item> items = {{1.0, 0.0, 0}, {1.0, 5.0, 1}};
  const Selection s = solve_exact_dp(items, 10);
  ASSERT_EQ(s.tags.size(), 1u);
  EXPECT_EQ(s.tags[0], 1);
}

TEST(CadpTest, ProfitAtLeastOptimalWithinCapacitySlack) {
  const auto items = classic_items();
  for (double eps : {0.1, 0.3, 0.5, 0.9}) {
    const Selection s = solve_cadp(items, 10.0, eps);
    EXPECT_GE(s.total_profit, 44.0) << "eps=" << eps;
    EXPECT_LE(s.total_size, (1.0 + eps) * 10.0 + 1e-9) << "eps=" << eps;
  }
}

TEST(CadpTest, RejectsBadEps) {
  EXPECT_THROW(solve_cadp(classic_items(), 10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(solve_cadp(classic_items(), 10.0, 1.0), std::invalid_argument);
  EXPECT_THROW(solve_cadp(classic_items(), 10.0, -0.5),
               std::invalid_argument);
}

TEST(CadpTest, EmptyInputsYieldEmptySelection) {
  EXPECT_TRUE(solve_cadp({}, 10.0, 0.5).tags.empty());
  EXPECT_TRUE(solve_cadp(classic_items(), 0.0, 0.5).tags.empty());
}

TEST(CadpTest, TagsAreReturnedNotIndices) {
  const std::vector<Item> items = {{1.0, 10.0, 42}, {100.0, 1.0, 7}};
  const Selection s = solve_cadp(items, 2.0, 0.5);
  ASSERT_EQ(s.tags.size(), 1u);
  EXPECT_EQ(s.tags[0], 42);
}

TEST(CadpTest, HugeSizeIsDeadNotCastOutOfRange) {
  // 1e300 / K does not fit int64: the size maps to cap + 1 (dead) before
  // the cast instead of wrapping to a negative size that gets selected.
  const std::vector<Item> items = {{1e300, 1.0, 0}, {1.0, 2.0, 1}};
  const Selection s = solve_cadp(items, 2.0, 0.5);
  ASSERT_EQ(s.tags.size(), 1u);
  EXPECT_EQ(s.tags[0], 1);
  // Largest finite double: size / K overflows to infinity, also dead.
  const std::vector<Item> huge = {
      {std::numeric_limits<double>::max(), 1.0, 0}, {1.0, 2.0, 1}};
  EXPECT_EQ(solve_cadp(huge, 2.0, 0.5).tags, std::vector<std::int32_t>{1});
}

TEST(CadpTest, AllLiveItemsFitRelaxesNoCells) {
  // The live items' sizes sum to the capacity, so every scaled size sums
  // to at most the scaled capacity: all of them are the one optimum, and no
  // table is built.  The zero-profit and oversize items stay out.
  const std::vector<Item> items = {
      {1.0, 3.0, 0}, {2.0, 1.0, 1}, {1.0, 0.0, 2}, {3.0, 2.0, 3},
      {100.0, 9.0, 4}};
  const Selection s = solve_cadp(items, 6.0, 0.5);
  EXPECT_EQ(s.tags, (std::vector<std::int32_t>{0, 1, 3}));
  EXPECT_EQ(s.total_profit, 6.0);
  EXPECT_EQ(s.dp_cells, 0u);
}

TEST(CadpTest, AllFitShortcutStaysOffThePerItemBranch) {
  // A fractional profit (and 2^53 * 3 live items) sends this to the
  // per-item passes.  All three fit, but 2^53 + 0.5 rounds to 2^53: the
  // table never gains from item 1, and the first maximizer leaves it out.
  // Taking every item that fits would return {0, 1, 2}.
  const std::vector<Item> items = {
      {1.0, 0x1p53, 0}, {1.0, 0.5, 1}, {1.0, 0x1p53, 2}};
  const Selection s = solve_cadp(items, 3.0, 0.5);
  EXPECT_EQ(s.tags, (std::vector<std::int32_t>{0, 2}));
  EXPECT_GT(s.dp_cells, 0u);
}

TEST(CadpTest, RejectsNonFiniteInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Item bad : {Item{nan, 1.0, 0}, Item{inf, 1.0, 0},
                         Item{1.0, nan, 0}, Item{1.0, inf, 0},
                         Item{1.0, -inf, 0}}) {
    EXPECT_THROW(solve_cadp({bad, {1.0, 2.0, 1}}, 2.0, 0.5),
                 std::invalid_argument);
  }
  EXPECT_THROW(solve_cadp(classic_items(), nan, 0.5), std::invalid_argument);
  EXPECT_THROW(solve_cadp(classic_items(), inf, 0.5), std::invalid_argument);
  EXPECT_TRUE(solve_cadp(classic_items(), -inf, 0.5).tags.empty());
}

TEST(CadpTest, RejectsEpsTooSmallForAnyTable) {
  // capacity / K = n / eps = 4e300 cells: no table, and no in-range cast.
  EXPECT_THROW(solve_cadp(classic_items(), 10.0, 1e-300),
               std::invalid_argument);
}

TEST(ExactDpTest, HugeIntegerSizeIsDead) {
  const std::vector<Item> items = {{1e300, 5.0, 0}, {3.0, 1.0, 1}};
  const Selection s = solve_exact_dp(items, 10);
  ASSERT_EQ(s.tags.size(), 1u);
  EXPECT_EQ(s.tags[0], 1);
}

TEST(ExactDpTest, RejectsNonFiniteInputsAndHugeCapacity) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(solve_exact_dp({{inf, 1.0, 0}}, 10), std::invalid_argument);
  EXPECT_THROW(solve_exact_dp({{1.0, nan, 0}}, 10), std::invalid_argument);
  EXPECT_THROW(solve_exact_dp(classic_items(),
                              std::numeric_limits<std::int64_t>::max()),
               std::invalid_argument);
}

TEST(GreedyConstraintTest, ProfitAtLeastOptimalWithinDoubleCapacity) {
  const auto items = classic_items();
  const Selection s = solve_greedy_constraint(items, 10.0);
  EXPECT_GE(s.total_profit, 44.0);
  EXPECT_LE(s.total_size, 2.0 * 10.0 + 1e-9);
}

TEST(GreedyConstraintTest, SkipsOversizedItems) {
  const std::vector<Item> items = {{50.0, 1000.0, 0}, {1.0, 1.0, 1}};
  const Selection s = solve_greedy_constraint(items, 10.0);
  ASSERT_EQ(s.tags.size(), 1u);
  EXPECT_EQ(s.tags[0], 1);
}

TEST(GreedyConstraintTest, StopsAfterFirstOverflowItem) {
  // Density order: items 0, 1, 2.  Prefix 0+1 = 9 <= 10; adding 2 makes 15
  // (> 10), so it is included and iteration stops before item 3.
  const std::vector<Item> items = {
      {4.0, 40.0, 0}, {5.0, 40.0, 1}, {6.0, 30.0, 2}, {1.0, 1.0, 3}};
  const Selection s = solve_greedy_constraint(items, 10.0);
  EXPECT_EQ(s.tags.size(), 3u);
  EXPECT_DOUBLE_EQ(s.total_size, 15.0);
}

TEST(GreedyHalfTest, WithinCapacityAndHalfOptimal) {
  const auto items = classic_items();
  const Selection s = solve_greedy_half(items, 10.0);
  EXPECT_LE(s.total_size, 10.0);
  EXPECT_GE(s.total_profit, 0.5 * 44.0);
}

TEST(GreedyHalfTest, PicksBestSingleWhenPrefixIsPoor) {
  // Density favours the small item, but the big item alone is worth more.
  const std::vector<Item> items = {{1.0, 10.0, 0}, {10.0, 60.0, 1}};
  const Selection s = solve_greedy_half(items, 10.0);
  ASSERT_EQ(s.tags.size(), 1u);
  EXPECT_EQ(s.tags[0], 1);
}

TEST(BackendDispatchTest, RoutesToBothBackends) {
  const auto items = classic_items();
  const Selection cadp =
      solve_constraint_approx(Backend::kCadp, items, 10.0, 0.5);
  const Selection greedy =
      solve_constraint_approx(Backend::kGreedyConstraint, items, 10.0, 0.5);
  EXPECT_GE(cadp.total_profit, 44.0);
  EXPECT_GE(greedy.total_profit, 44.0);
  EXPECT_STREQ(backend_name(Backend::kCadp), "CADP");
  EXPECT_STREQ(backend_name(Backend::kGreedyConstraint), "GREEDY");
}

}  // namespace
}  // namespace mris::knapsack
