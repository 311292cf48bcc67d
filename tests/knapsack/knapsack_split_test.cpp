// Differential tests of recover()'s removal-window split (knapsack.hpp):
// with SplitAudit::cross_check set, every split the window solves is also
// computed from the forward capacity tables, and a mismatch throws a
// ContractViolation.  The instance families reach each branch of the
// window: tied profits, zero-size items, items above a node's capacity,
// nodes where everything fits (Delta <= 0), and profits large enough that
// the window is wider than the capacity (forward fallback).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "knapsack/knapsack.hpp"
#include "testkit/streams.hpp"
#include "util/rng.hpp"

namespace mris::knapsack {
namespace {

/// Cross-checks every window split solved on this thread while in scope,
/// and reports how the splits were found.
class AuditScope {
 public:
  AuditScope() : saved_(split_audit()) {
    split_audit() = SplitAudit{};
    split_audit().cross_check = true;
  }
  ~AuditScope() { split_audit() = saved_; }
  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

  std::uint64_t window() const { return split_audit().window; }
  std::uint64_t table() const { return split_audit().table; }

 private:
  SplitAudit saved_;
};

/// Integer sizes in [0, max_size] (zero_share of them 0) and integer
/// profits in [1, max_profit]; small ranges make (size, profit) ties.
std::vector<Item> integral_items(util::Xoshiro256& rng, std::size_t n,
                                 std::int64_t max_size,
                                 std::int64_t max_profit,
                                 double zero_share) {
  std::vector<Item> items;
  for (std::size_t i = 0; i < n; ++i) {
    const bool zero = util::uniform01(rng) < zero_share;
    const auto size =
        zero ? 0.0 : static_cast<double>(util::uniform_int(rng, 1, max_size));
    items.push_back(
        {size, static_cast<double>(util::uniform_int(rng, 1, max_profit)),
         static_cast<std::int32_t>(i)});
  }
  return items;
}

double total_size(const std::vector<Item>& items) {
  double total = 0.0;
  for (const Item& item : items) total += item.size;
  return total;
}

/// Solves fuzz_iters(6) instances from one labelled stream through
/// solve_exact_dp and solve_cadp under the cross-check; `make` draws the
/// items and returns the exact DP's capacity.
void sweep(int seed, std::string_view label,
           const std::function<std::int64_t(util::Xoshiro256&,
                                             std::vector<Item>&)>& make) {
  util::Xoshiro256 rng =
      testkit::make_stream(static_cast<std::uint64_t>(seed), label);
  for (std::size_t rep = 0; rep < testkit::fuzz_iters(6); ++rep) {
    std::vector<Item> items;
    const std::int64_t capacity = make(rng, items);
    EXPECT_NO_THROW(solve_exact_dp(items, capacity))
        << label << " rep " << rep << " capacity " << capacity;
    EXPECT_NO_THROW(solve_cadp(items, static_cast<double>(capacity), 0.5))
        << label << " rep " << rep << " capacity " << capacity;
  }
}

class WindowSplit : public ::testing::TestWithParam<int> {};

TEST_P(WindowSplit, TiedProfitsMatchTheForwardTables) {
  AuditScope audit;
  sweep(GetParam(), "knapsack-window-ties",
        [](util::Xoshiro256& rng, std::vector<Item>& items) {
          const auto n =
              static_cast<std::size_t>(util::uniform_int(rng, 8, 160));
          items = integral_items(rng, n, 12, 3, 0.0);
          return static_cast<std::int64_t>(total_size(items) *
                                           util::uniform(rng, 0.3, 0.9));
        });
  EXPECT_GT(audit.window(), 0u);
}

TEST_P(WindowSplit, ZeroSizeItemsMatchTheForwardTables) {
  AuditScope audit;
  sweep(GetParam(), "knapsack-window-zero",
        [](util::Xoshiro256& rng, std::vector<Item>& items) {
          const auto n =
              static_cast<std::size_t>(util::uniform_int(rng, 8, 160));
          items = integral_items(rng, n, 30, 4, 0.5);
          return static_cast<std::int64_t>(total_size(items) *
                                           util::uniform(rng, 0.2, 0.8));
        });
  EXPECT_GT(audit.window(), 0u);
}

TEST_P(WindowSplit, ItemsAboveANodesCapacityMatchTheForwardTables) {
  // Sizes up to the whole capacity: the recursion hands children smaller
  // capacities, and items above them are dead there but live at the top.
  AuditScope audit;
  sweep(GetParam(), "knapsack-window-oversize",
        [](util::Xoshiro256& rng, std::vector<Item>& items) {
          const std::int64_t capacity = util::uniform_int(rng, 20, 120);
          const auto n =
              static_cast<std::size_t>(util::uniform_int(rng, 8, 80));
          items = integral_items(rng, n, capacity + capacity / 4, 5, 0.1);
          return capacity;
        });
  EXPECT_GT(audit.window(), 0u);
}

TEST_P(WindowSplit, NearlyEverythingFitsMatchesTheForwardTables) {
  // Capacity at 85-110% of the total size: most nodes remove nothing or
  // almost nothing (Delta <= 0 once a large item is dead at a node).
  AuditScope audit;
  sweep(GetParam(), "knapsack-window-fits",
        [](util::Xoshiro256& rng, std::vector<Item>& items) {
          const auto n =
              static_cast<std::size_t>(util::uniform_int(rng, 8, 120));
          items = integral_items(rng, n, 40, 3, 0.2);
          return static_cast<std::int64_t>(total_size(items) *
                                           util::uniform(rng, 0.85, 1.1));
        });
  EXPECT_GT(audit.window(), 0u);
}

TEST_P(WindowSplit, WideWindowsFallBackToTheForwardTables) {
  // Profits in the thousands against capacities below 100: the removed
  // profit of a split passes the capacity, so nodes build the forward
  // tables, while the rest still take the window.
  AuditScope audit;
  sweep(GetParam(), "knapsack-window-wide",
        [](util::Xoshiro256& rng, std::vector<Item>& items) {
          const auto n =
              static_cast<std::size_t>(util::uniform_int(rng, 8, 120));
          items = integral_items(rng, n, 9, 5000, 0.1);
          return static_cast<std::int64_t>(total_size(items) *
                                           util::uniform(rng, 0.2, 0.7));
        });
  EXPECT_GT(audit.table(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowSplit, ::testing::Range(1, 9));

TEST(WindowSplitTest, FractionalProfitsKeepTheForwardTables) {
  AuditScope audit;
  std::vector<Item> items;
  for (std::int32_t i = 0; i < 40; ++i) {
    items.push_back({static_cast<double>(1 + i % 7), 1.5 + (i % 3), i});
  }
  const Selection sel = solve_exact_dp(items, 60);
  EXPECT_GT(sel.dp_cells, 0u);
  EXPECT_EQ(audit.window(), 0u);
  EXPECT_GT(audit.table(), 0u);
}

TEST(WindowSplitTest, TheWindowRelaxesFewerCellsThanTheTables) {
  // A few hundred items where the optimum leaves a small profit out: the
  // window's tables are a fraction of the capacity's width.
  util::Xoshiro256 rng = testkit::make_stream(3, "knapsack-window-cells");
  const std::vector<Item> items = integral_items(rng, 400, 50, 3, 0.3);
  const auto capacity =
      static_cast<std::int64_t>(0.95 * total_size(items));
  AuditScope audit;
  const Selection sel = solve_exact_dp(items, capacity);
  EXPECT_GT(audit.window(), 0u);
  EXPECT_EQ(audit.table(), 0u);
  // The cross-check's forward tables are left out of dp_cells; one pair
  // of full-width tables alone would be 2 * (capacity + 1) cells.
  EXPECT_LT(sel.dp_cells, 2 * static_cast<std::uint64_t>(capacity + 1));
}

}  // namespace
}  // namespace mris::knapsack
